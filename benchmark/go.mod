module kspot/benchmark

go 1.24

require kspot v0.0.0

replace kspot => ../
