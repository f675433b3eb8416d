package interp

// SkippedSteps reports how many steps the VM's periodic fast-forward
// (cycle.go) has skipped.
func (vm *VM) SkippedSteps() uint64 { return vm.cyc.skipped }
