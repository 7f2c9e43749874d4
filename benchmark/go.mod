module redbud/benchmark

go 1.22

require redbud v0.0.0

replace redbud => ../
