package core

import (
	"reflect"
	"testing"
)

// TestCountersAddAndEachCoverEveryField pins that Add sums and Each
// reports every field of Counters, each under its metric tag and in
// declaration order, so a new counter needs no second list anywhere.
func TestCountersAddAndEachCoverEveryField(t *testing.T) {
	var a, b Counters
	va, vb := reflect.ValueOf(&a).Elem(), reflect.ValueOf(&b).Elem()
	for i := 0; i < va.NumField(); i++ {
		va.Field(i).SetInt(int64(i + 1))
		vb.Field(i).SetInt(int64(100 * (i + 1)))
	}
	a.Add(b)
	typ := va.Type()
	i := 0
	a.Each(func(name string, v int64) {
		if i >= typ.NumField() {
			t.Fatalf("Each visited more than %d fields", typ.NumField())
		}
		f := typ.Field(i)
		if want := f.Tag.Get("metric"); name != want {
			t.Errorf("field %d (%s): Each name %q, tag %q", i, f.Name, name, want)
		}
		if want := int64(101 * (i + 1)); v != want || va.Field(i).Int() != want {
			t.Errorf("%s: Each %d, field %d after Add, want %d", f.Name, v, va.Field(i).Int(), want)
		}
		i++
	})
	if i != typ.NumField() {
		t.Fatalf("Each visited %d of %d fields", i, typ.NumField())
	}
}
