// Package configdrop is the fixture for the configdrop analyzer: it
// mimics the engine package's shape (a Config type, a Job type, a
// Register function, backends registered from init with factory
// literals constructing runner types).
package configdrop

// Config is the fixture's knob surface.
type Config struct {
	Workers int
	Depth   int
	Label   string
}

// Job is the fixture's per-job surface.
type Job struct {
	Name string
	Size int64
}

// Runner mimics engine.Runner: factories return it, so runner methods
// are reached only through interface dispatch.
type Runner interface {
	Run(*Job) error
}

// Factory mimics engine.Factory.
type Factory func(Config) (Runner, error)

var reg = map[string]Factory{}

// Register mimics engine.Register.
func Register(name string, f Factory) { reg[name] = f }

type goodRunner struct{ cfg Config }

func (g *goodRunner) Run(job *Job) error {
	use(g.cfg.Workers, g.cfg.Depth, g.cfg.Label)
	use(job.Name, job.Size)
	return nil
}

type badRunner struct{ cfg Config }

func (b *badRunner) Run(job *Job) error {
	use(b.cfg.Workers)
	use(job.Name)
	return nil
}

type ackedRunner struct{ cfg Config }

func (a *ackedRunner) Run(job *Job) error {
	use(a.cfg.Workers, a.cfg.Label)
	use(job.Name)
	return nil
}

func use(args ...any) {}

func init() {
	Register("good", func(cfg Config) (Runner, error) { return &goodRunner{cfg: cfg}, nil })

	Register("bad", func(cfg Config) (Runner, error) { return &badRunner{cfg: cfg}, nil }) // want `backend "bad" never references Config\.Depth, Config\.Label` `backend "bad" never references Job\.Size`

	//hetlint:configdrop-ok acked Config.Depth fixture: proves the ack directive works
	//hetlint:configdrop-ok acked Job.Size fixture: proves the ack directive works
	Register("acked", func(cfg Config) (Runner, error) { return &ackedRunner{cfg: cfg}, nil })

	// Directives that excuse nothing are findings too.
	//hetlint:configdrop-ok ghost Config.Depth fixture // want `names backend "ghost", which is not registered`
	//hetlint:configdrop-ok acked Config.Width fixture // want `names Config\.Width, which is no exported field`
	//hetlint:configdrop-ok acked Config.Workers fixture // want `acked Config\.Workers excuses nothing`
}
