package core

import (
	"reflect"
	"testing"
	"unsafe"
)

// TestUopPointerFree pins the layout that keeps the exact machine's hot
// structures out of the collector's way: a uop, an event, a waiter node
// and a RAT entry hold no pointer, string, slice, map, interface, channel
// or function, so the uop slabs, the event heap, the waiter store, the
// queues and the rename maps are never scanned and need no write
// barriers. It also bounds the uop's size, which every alloc clears.
func TestUopPointerFree(t *testing.T) {
	for _, v := range []any{uop{}, event{}, waiter{}, ratEntry{}, rat{}} {
		typ := reflect.TypeOf(v)
		if path, ok := pointerFree(typ, typ.Name()); !ok {
			t.Errorf("%s holds a reference at %s", typ.Name(), path)
		}
	}
	n := unsafe.Sizeof(uop{})
	t.Logf("uop is %d bytes", n)
	if n > 256 {
		t.Errorf("uop is %d bytes, want at most 256", n)
	}
	// The fields every stage tests share the uop's first cache line.
	for _, f := range []string{"seq", "dstVal", "wHead", "wTail", "gen", "done", "squashed", "issued", "inReady", "renamed"} {
		sf, ok := reflect.TypeOf(uop{}).FieldByName(f)
		if !ok {
			t.Fatalf("uop has no field %s", f)
		}
		if end := sf.Offset + sf.Type.Size(); end > 64 {
			t.Errorf("uop.%s ends at byte %d, outside the first cache line", f, end)
		}
	}
}

// pointerFree reports whether typ holds no reference, and if it does,
// the path to the first one.
func pointerFree(typ reflect.Type, path string) (string, bool) {
	switch typ.Kind() {
	case reflect.Pointer, reflect.UnsafePointer, reflect.String, reflect.Slice,
		reflect.Map, reflect.Interface, reflect.Chan, reflect.Func:
		return path, false
	case reflect.Array:
		return pointerFree(typ.Elem(), path+"[]")
	case reflect.Struct:
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			if p, ok := pointerFree(f.Type, path+"."+f.Name); !ok {
				return p, false
			}
		}
	}
	return "", true
}
