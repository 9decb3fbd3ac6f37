module morphstreamr/benchmark

go 1.22

require morphstreamr v0.0.0

replace morphstreamr => ../
