module dash/benchmark

go 1.24

require dash v0.0.0

replace dash => ../
