module github.com/meccdn/meccdn/benchmark

go 1.22

require github.com/meccdn/meccdn v0.0.0

replace github.com/meccdn/meccdn => ../
