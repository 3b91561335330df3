package framework

// facts.go is the cross-package fact layer: an analyzer attaches a fact to
// a package-level object (function, method, type, var) while analyzing the
// object's package, and any analyzer running later over an importing
// package can read it back — golang.org/x/tools/go/analysis Facts, held
// in memory for the one process that analyzes every package.
//
// Objects are keyed by a stable textual path rather than by pointer
// identity because the importing package sees a *different* types.Object
// for the same function: one reconstructed from export data, not the one
// the defining package's source check produced.

import (
	"go/types"
	"reflect"
)

// A Fact is a datum attached to a package-level object. Concrete fact
// types must be pointers to structs. AFact is a marker method, as in
// go/analysis.
type Fact interface {
	AFact()
}

// ObjectPath returns a stable path for a package-level object that is
// identical whether the object came from source or from export data:
// "Name" for package-scope objects, "Recv.Name" for methods (the receiver
// pointer is stripped). Objects that are not package-level (locals,
// struct fields) have no path.
func ObjectPath(obj types.Object) (string, bool) {
	if obj == nil || obj.Pkg() == nil {
		return "", false
	}
	if fn, ok := obj.(*types.Func); ok {
		if named := ReceiverNamed(fn); named != nil {
			return named.Obj().Name() + "." + fn.Name(), true
		}
		// Interface methods reach here with a nil ReceiverNamed; key them
		// through the interface's type name when the receiver is named.
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
			if named, ok := sig.Recv().Type().(*types.Named); ok {
				return named.Obj().Name() + "." + fn.Name(), true
			}
			return "", false
		}
		return fn.Name(), true
	}
	if obj.Parent() == obj.Pkg().Scope() {
		return obj.Name(), true
	}
	return "", false
}

// factKey identifies one fact: which package's object, which object, and
// which fact type (an object can carry one fact per concrete type).
type factKey struct {
	pkg string
	obj string
	typ reflect.Type
}

// A factStore holds every fact exported during a run, across packages.
// One store is shared by all analyzers of a Run.
type factStore map[factKey]Fact

func (s factStore) export(pkg, obj string, f Fact) {
	s[factKey{pkg, obj, reflect.TypeOf(f)}] = f
}

// lookup copies the stored fact with f's concrete type into f and reports
// whether one was found. f must be a non-nil pointer.
func (s factStore) lookup(pkg, obj string, f Fact) bool {
	got, ok := s[factKey{pkg, obj, reflect.TypeOf(f)}]
	if !ok {
		return false
	}
	reflect.ValueOf(f).Elem().Set(reflect.ValueOf(got).Elem())
	return true
}
