// Periodic fast-forward: the compiled loop's shortcut for a run that is
// provably stuck in a loop until its step budget runs out.
//
// A VM whose whole machine state at one instruction boundary equals its
// state at an earlier one, with nothing written in between, can never
// leave that cycle: every later period replays the first. Such a run ends
// in a timeout, so rather than execute the periods one by one, dispatch
// advances the clocks and counters by whole periods to just short of the
// budget and executes the last steps normally. The VM times out on the
// same step and returns the same Result — steps, cycles, memory
// statistics, output, fault fields — as if every step had run, and the
// cache's hit and miss counters match too.
//
// What is compared: the function and pc, every frame of the explicit
// stack, the call depth, the whole register stack, the output length,
// faultSeen, and the Space's Checkpoint (stack pointer, globals, heap
// and dirty marks, free lists, statistics, cache tags in LRU order).
// The period must also be write-free: no store, heap allocation or free
// (the Space checks these), no extern call and no RandInt draw (the VM
// counts those in cycleState.effects). Memory is then equal without
// being compared or copied.
//
// When it looks: only a compiled VM that does not yield and has a finite
// budget, only in the root dispatch segment (segBase 0), and only at an
// instruction boundary, never inside a fused op. A look opens once the
// step count passes 1/16 of the budget, then 1/8, 1/4 and 1/2; each one
// snapshots one boundary and compares the next cycleWindow boundaries
// against it. Dispatch keeps the hot path unchanged by folding the next
// look into its local step limit (see dispatch).
package interp

import (
	"math"
	"slices"

	"dpmr/internal/mem"
)

const (
	// cycleFirstShift places the first look at budget>>cycleFirstShift
	// steps; each later look halves the shift, up to budget>>1.
	cycleFirstShift = 4
	// cycleWindow is the number of boundaries a look compares against
	// its snapshot, and so the longest period, in dispatched
	// instructions, that it can find.
	cycleWindow = 4096
)

// cycleState is a VM's fast-forward detector.
type cycleState struct {
	// next is the step count at which dispatch next calls look: the
	// start of the next look, the next boundary during one, and
	// math.MaxUint64 once the VM no longer looks.
	next uint64
	// shift is budget>>shift for the look that next opens.
	shift uint
	// left counts the boundaries still to compare in the open look; 0
	// when none is open.
	left int
	// effects counts the extern calls and RandInt draws the compiled
	// loop has made; a period that moves it is not write-free.
	effects uint64
	// skipped is the number of steps fast-forwarded, for tests.
	skipped uint64

	snap cycleSnap
}

// cycleSnap is the machine state at the boundary a look opened on.
type cycleSnap struct {
	steps, extra uint64
	pc           int
	depth        int
	outLen       int
	faultSeen    bool
	effects      uint64
	frames       []frame
	regs         []uint64
	space        mem.Checkpoint
}

// armCycles sets up the detector of a new VM: only a VM bound to a
// program that does not yield, under a finite budget, ever looks.
func (vm *VM) armCycles() {
	vm.cyc.next = math.MaxUint64
	if vm.prog != nil && !vm.prog.yielding && vm.cfg.StepLimit != 0 {
		vm.cyc.shift = cycleFirstShift
		vm.cyc.next = vm.limit >> cycleFirstShift
	}
}

// look is the detector dispatch calls at the boundary of instruction pc
// in the top frame once the step count, already counting that
// instruction, passes vm.cyc.next while still within the budget. It
// opens a look, compares the boundary against the open look's snapshot
// and, on a match, fast-forwards c. It returns dispatch's new local step
// limit, and leaves the top frame to be re-entered at pc: it stores pc
// as the frame's saved pc and un-counts the instruction's step, which
// the re-dispatch counts again. Dispatch holds nothing across the call
// that way, so the hot loop keeps its registers.
//
//go:noinline
func (vm *VM) look(c *clock, pc int) uint64 {
	s := &vm.cyc
	vm.frames[len(vm.frames)-1].pc = pc
	switch {
	case s.left == 0:
		vm.snapshot(c, pc)
		s.left, s.next = cycleWindow, c.steps
	case vm.sameState(pc):
		vm.fastForward(c)
		s.left, s.next = 0, math.MaxUint64
	case s.left > 1:
		s.left--
		s.next = c.steps
	default:
		// The look's last boundary did not match either.
		s.left = 0
		if s.shift--; s.shift > 0 {
			s.next = vm.limit >> s.shift
		} else {
			s.next = math.MaxUint64
		}
	}
	c.steps--
	return min(s.next, vm.limit)
}

// snapshot records the machine state at the boundary of pc.
func (vm *VM) snapshot(c *clock, pc int) {
	p := &vm.cyc.snap
	p.steps, p.extra = c.steps, c.extra
	p.pc, p.depth, p.outLen, p.faultSeen = pc, vm.depth, len(vm.output), vm.faultSeen
	p.effects = vm.cyc.effects
	p.frames = append(p.frames[:0], vm.frames...)
	p.regs = append(p.regs[:0], vm.regStack...)
	vm.Space.Checkpoint(&p.space)
}

// sameState reports whether the machine at the boundary of pc is in the
// snapshot's state with nothing written since. The cheap scalar compares
// run first, so most boundaries of a look cost a single compare.
func (vm *VM) sameState(pc int) bool {
	p := &vm.cyc.snap
	return pc == p.pc && vm.depth == p.depth && len(vm.output) == p.outLen &&
		vm.faultSeen == p.faultSeen && vm.cyc.effects == p.effects &&
		slices.Equal(vm.frames, p.frames) && slices.Equal(vm.regStack, p.regs) &&
		vm.Space.Unchanged(&p.space)
}

// fastForward advances the clocks and counters by as many whole periods
// — the steps since the snapshot — as fit while leaving at least one
// period of the budget to execute normally, so the timeout still falls
// on its own step, inside whatever instruction it would.
func (vm *VM) fastForward(c *clock) {
	p := &vm.cyc.snap
	period := c.steps - p.steps
	n := (vm.limit - c.steps) / period
	if n < 2 {
		return
	}
	n--
	c.steps += n * period
	c.extra += n * (c.extra - p.extra)
	vm.Space.Advance(&p.space, n)
	vm.cyc.skipped += n * period
}
