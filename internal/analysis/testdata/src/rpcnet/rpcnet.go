// Package rpcnet is a fixture stub mirroring the shape of
// hetmr/internal/rpcnet: the analyzers match it by package base name,
// so fixtures exercise the rpcnet-specific rules without loading the
// real wire layer.
package rpcnet

// Client mirrors rpcnet.Client.
type Client struct{}

// Dial mirrors rpcnet.Dial.
func Dial(addr string) (*Client, error) { return &Client{}, nil }

// NewServer mirrors rpcnet.NewServer.
func NewServer(addr string) (*Server, error) { return &Server{}, nil }

// Server mirrors rpcnet.Server.
type Server struct{}

// Close mirrors Server.Close.
func (s *Server) Close() error { return nil }

// Call mirrors Client.Call.
func (c *Client) Call(method string, arg, result any) error { return nil }

// CallTimeout mirrors Client.CallTimeout.
func (c *Client) CallTimeout(method string, arg, result any, timeoutNs int64) error { return nil }

// CallTail mirrors Client.CallTail.
func (c *Client) CallTail(method string, arg any, tail []byte, result any, dst []byte, timeoutNs int64) ([]byte, error) {
	return dst, nil
}

// Close mirrors Client.Close.
func (c *Client) Close() error { return nil }
