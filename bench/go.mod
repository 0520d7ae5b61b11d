module gocast/bench

go 1.22

require gocast v0.0.0

replace gocast => ../
