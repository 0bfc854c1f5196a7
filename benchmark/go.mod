module github.com/sieve-db/sieve/benchmark

go 1.24

require github.com/sieve-db/sieve v0.0.0

replace github.com/sieve-db/sieve => ../
