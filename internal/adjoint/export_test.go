package adjoint

// ForceAllLive returns opt with every objective live at every step: the
// dense sweep that builds, solves, carries and accumulates all objectives
// everywhere, against which live-objective skipping is checked bit for bit.
func ForceAllLive(opt Options) Options {
	opt.allLive = true
	return opt
}
