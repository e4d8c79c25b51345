module fxdist/bench

go 1.22

require fxdist v0.0.0

replace fxdist => ../
