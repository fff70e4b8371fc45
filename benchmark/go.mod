module github.com/secarchive/sec/benchmark

go 1.24

require github.com/secarchive/sec v0.0.0

replace github.com/secarchive/sec => ../
