module github.com/socialtube/socialtube/bench

go 1.22

require github.com/socialtube/socialtube v0.0.0

replace github.com/socialtube/socialtube => ../
