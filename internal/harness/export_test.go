package harness

// ObservePolicy calls f with the execution policy of every Runner that
// starts a trial range, and that Runner, until the returned restore func
// runs. Calls may come from several goroutines at once.
func ObservePolicy(f func(Options)) (restore func()) {
	execHook = func(r *Runner) { f(Options{Parallel: r.parallel, Reference: !r.compile, Runner: r}) }
	return func() { execHook = nil }
}
