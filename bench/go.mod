module hetmr/bench

go 1.22

require hetmr v0.0.0

replace hetmr => ../
