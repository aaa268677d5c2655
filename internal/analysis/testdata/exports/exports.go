// Package exports is the dead-export rule's fixture: Dead and
// ReceiverOnly are findings; Used, stringer.String and the exempt Kept
// are not.
package exports

import "fmt"

// Dead has no caller anywhere: finding.
func Dead() {}

// Used has a caller below: clean.
func Used() int { return 1 }

var _ = Used()

// Kept has no caller, but the test exempts it: clean.
func Kept() {}

// ReceiverOnly is named only by its own method's receiver: finding.
type ReceiverOnly struct{ n int }

func (r *ReceiverOnly) bump() { r.n++ }

// stringer.String is never called by name; it is reached through
// fmt.Stringer: clean.
type stringer struct{}

func (stringer) String() string { return "stringer" }

var _ = fmt.Sprint(stringer{})
