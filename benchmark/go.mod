module cloudwalker/benchmark

go 1.24

require cloudwalker v0.0.0

replace cloudwalker => ../
