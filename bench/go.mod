module adsim/bench

go 1.22

require adsim v0.0.0

replace adsim => ../
