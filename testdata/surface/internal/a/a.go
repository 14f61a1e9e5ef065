// Package a holds one declaration per rule of the surface guard.
package a

// Dead has no caller.
func Dead() {}

// OwnTestOnly is called only by this package's test.
func OwnTestOnly() {}

// OtherTestOnly is called only by another package's test.
func OtherTestOnly() {}

// Allowed has no caller but is on the allow-list.
func Allowed() {}

// Live has a caller but is still on the allow-list.
func Live() int { return 1 }

// Named is used by another package; String is called only through
// fmt.Stringer.
type Named struct{}

func (Named) String() string { return "named" }

func (Named) unused() {}

// Orphan is named only by its own method.
type Orphan struct{}

func (o Orphan) self() Orphan { return o }

// Wait is the blocking form of FWait.
func Wait() { FWait() }

// FWait is the step-function form of Wait.
func FWait() {}

// Poll is allow-listed as the blocking form of an FPoll that is missing.
func Poll() {}

// Options holds one option per rule of the field guard.
type Options struct {
	// Defaulted is set only by withDefaults.
	Defaulted int
	// OwnTestSet is set only by this package's test.
	OwnTestSet int
	// Literal is set by a literal in another package.
	Literal int
	// Assigned is set by an assignment in this package.
	Assigned int
}

func (o Options) withDefaults() Options {
	if o.Defaulted == 0 {
		o.Defaulted = 1
	}
	return o
}

// Configure fills o's defaults and derives Assigned.
func Configure(o Options) Options {
	o = o.withDefaults()
	o.Assigned = o.Literal + o.OwnTestSet
	return o
}

// ownTestHelper is unexported and called only by this package's test.
func ownTestHelper() {}
