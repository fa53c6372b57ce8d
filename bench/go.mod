module pabst/bench

go 1.22

require pabst v0.0.0

replace pabst => ../
