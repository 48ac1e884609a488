module skynet/bench

go 1.22

require skynet v0.0.0

replace skynet => ../
