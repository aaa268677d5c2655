// Package exports is the dead-export rule's fixture: Dead, ReceiverOnly
// and Asserted are findings; Used, stringer.String, Asserted.String and
// the exempt Kept are not.
package exports

import "fmt"

// Dead has no caller anywhere: finding.
func Dead() {}

// Used has a caller below: clean.
func Used() int { return 1 }

var used = Used()

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

// Asserted is named only by a blank interface assertion, which uses
// nothing: finding. Its String method implements fmt.Stringer: clean.
type Asserted struct{}

func (Asserted) String() string { return "asserted" }

var _ fmt.Stringer = Asserted{}
