module prestocs/bench

go 1.22

require prestocs v0.0.0

replace prestocs => ../
