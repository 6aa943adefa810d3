module github.com/gsalert/gsalert/bench

go 1.22

require github.com/gsalert/gsalert v0.0.0

replace github.com/gsalert/gsalert => ../
