package workload

import (
	"reflect"
	"testing"
)

// Profile.Clone relies on every field being a value type: a struct copy of
// such a Profile is a deep copy. Multiple runners share cloned profiles
// across goroutines, so a silently-aliased slice or map field would be a
// data race. This guard fails the moment a reference-typed field is added,
// pointing at the method that must then copy it explicitly.
func TestProfileHasOnlyValueFields(t *testing.T) {
	typ := reflect.TypeOf(Profile{})
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		switch f.Type.Kind() {
		case reflect.Slice, reflect.Map, reflect.Pointer, reflect.Chan,
			reflect.Func, reflect.Interface, reflect.UnsafePointer:
			t.Errorf("Profile.%s is a %s: struct copy now aliases it — update Profile.Clone to copy it explicitly, then extend this guard",
				f.Name, f.Type.Kind())
		}
	}
}

func TestCloneIsIndependent(t *testing.T) {
	p, ok := ByName("h2")
	if !ok {
		t.Fatal("no h2 profile")
	}
	c := p.Clone()
	if !reflect.DeepEqual(*p, *c) {
		t.Fatal("clone differs from the original")
	}
	c.Name, c.BaseSeconds = "mutant", p.BaseSeconds*2
	if p.Name == "mutant" || p.BaseSeconds == c.BaseSeconds {
		t.Error("mutating a clone must not affect the original")
	}
}

// The built-in catalog is built once per process, and every lookup hands
// out a copy: a caller that changes the profile it got leaves the next
// ByName, All and Names answer unchanged.
func TestCatalogLookupsHandOutCopies(t *testing.T) {
	p, _ := ByName("h2")
	want := *p
	p.Name, p.BaseSeconds, p.LiveSetMB = "mutant", -1, -1
	all := All()
	all[0].Name = "mutant"
	if again, ok := ByName("h2"); !ok || *again != want {
		t.Errorf("a changed lookup leaked into the next: %+v", again)
	}
	if again := All(); again[0].Name == "mutant" || *again[0] == *all[0] {
		t.Errorf("a changed All entry leaked into the next All: %q", again[0].Name)
	}
	for _, name := range Names() {
		if name == "mutant" {
			t.Fatal("a changed lookup renamed a catalog entry")
		}
	}
}
