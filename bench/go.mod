module edonkey/bench

go 1.22

require edonkey v0.0.0

replace edonkey => ../
