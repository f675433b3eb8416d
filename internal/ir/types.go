// Package ir defines the typed intermediate representation that DPMR
// transforms operate on. It mirrors the abstract machine assumed by the
// paper (Chapter 2): primitive integer and floating point types of
// predefined sizes, a void type, and five derived types (pointers,
// structures, unions, arrays, and functions). Virtual registers hold only
// scalars (integers, floats, pointers); programs interact with memory
// exclusively through load and store instructions; memory is allocated on
// the heap (malloc), the stack (alloca), or in global variables.
package ir

import (
	"fmt"
	"strconv"
	"strings"
)

// PtrBytes is the size of every pointer type. The paper assumes all pointer
// types have the same predefined size.
const PtrBytes = 8

// Kind discriminates the type categories of the IR type system.
type Kind uint8

// Type kinds. They start at one so the zero Kind is invalid.
const (
	KindInt Kind = iota + 1
	KindFloat
	KindVoid
	KindPointer
	KindStruct
	KindUnion
	KindArray
	KindFunc
)

func (k Kind) String() string {
	switch k {
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindVoid:
		return "void"
	case KindPointer:
		return "pointer"
	case KindStruct:
		return "struct"
	case KindUnion:
		return "union"
	case KindArray:
		return "array"
	case KindFunc:
		return "func"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Type is an IR type. Types are immutable after construction, with the one
// exception of named struct and union bodies, which may be set once after
// creation to permit recursive types (the same mechanism LLVM uses for
// identified structs, and the mechanism the paper's placeholder resolution
// maps onto).
type Type interface {
	Kind() Kind
	// Size returns the number of bytes reserved when the type is allocated,
	// including alignment padding (the paper's sizeof()).
	Size() int
	// Align returns the alignment requirement in bytes.
	Align() int
	// Key returns a canonical string for structural identity. Named structs
	// and unions are nominal: their key is derived from the name only, which
	// makes recursive types finite.
	Key() string
	String() string
}

// IsScalar reports whether t may be held in a virtual register: integers,
// floats, and pointers.
func IsScalar(t Type) bool {
	if t == nil {
		return false
	}
	switch t.Kind() {
	case KindInt, KindFloat, KindPointer:
		return true
	}
	return false
}

// IsPointer reports whether t is a pointer type.
func IsPointer(t Type) bool {
	return t != nil && t.Kind() == KindPointer
}

// TypesEqual reports structural equality (nominal for named aggregates).
func TypesEqual(a, b Type) bool {
	if a == b {
		return true
	}
	if a == nil || b == nil {
		return false
	}
	return a.Key() == b.Key()
}

// ---------------------------------------------------------------------------
// Primitive types

// IntType is an integer of Bits ∈ {1, 8, 16, 32, 64}. Bits=1 is the boolean
// produced by comparisons; it occupies one byte in memory.
type IntType struct{ Bits int }

// Predefined integer types.
var (
	I1  = &IntType{Bits: 1}
	I8  = &IntType{Bits: 8}
	I16 = &IntType{Bits: 16}
	I32 = &IntType{Bits: 32}
	I64 = &IntType{Bits: 64}
)

func (t *IntType) Kind() Kind { return KindInt }
func (t *IntType) Size() int {
	if t.Bits == 1 {
		return 1
	}
	return t.Bits / 8
}
func (t *IntType) Align() int { return t.Size() }
func (t *IntType) Key() string {
	switch t.Bits {
	case 1:
		return "i1"
	case 8:
		return "i8"
	case 16:
		return "i16"
	case 32:
		return "i32"
	case 64:
		return "i64"
	}
	return "i" + strconv.Itoa(t.Bits)
}
func (t *IntType) String() string { return t.Key() }

// FloatType is a floating point number of Bits ∈ {32, 64}.
type FloatType struct{ Bits int }

// Predefined floating point types.
var (
	F32 = &FloatType{Bits: 32}
	F64 = &FloatType{Bits: 64}
)

func (t *FloatType) Kind() Kind { return KindFloat }
func (t *FloatType) Size() int  { return t.Bits / 8 }
func (t *FloatType) Align() int { return t.Bits / 8 }
func (t *FloatType) Key() string {
	switch t.Bits {
	case 32:
		return "f32"
	case 64:
		return "f64"
	}
	return "f" + strconv.Itoa(t.Bits)
}
func (t *FloatType) String() string { return t.Key() }

// VoidType is the void type. It has no size and may only appear as a
// function return type or as the pointee of a void pointer.
type VoidType struct{}

// Void is the singleton void type.
var Void = &VoidType{}

func (t *VoidType) Kind() Kind     { return KindVoid }
func (t *VoidType) Size() int      { return 0 }
func (t *VoidType) Align() int     { return 1 }
func (t *VoidType) Key() string    { return "void" }
func (t *VoidType) String() string { return "void" }

// ---------------------------------------------------------------------------
// Derived types

// PointerType is a pointer to Elem. All pointers are PtrBytes wide.
type PointerType struct{ Elem Type }

// Ptr returns a pointer type to elem.
func Ptr(elem Type) *PointerType { return &PointerType{Elem: elem} }

// VoidPtr returns a fresh void* type.
func VoidPtr() *PointerType { return Ptr(Void) }

func (t *PointerType) Kind() Kind     { return KindPointer }
func (t *PointerType) Size() int      { return PtrBytes }
func (t *PointerType) Align() int     { return PtrBytes }
func (t *PointerType) Key() string    { return t.Elem.Key() + "*" }
func (t *PointerType) String() string { return t.Elem.String() + "*" }

// ArrayType is a fixed-length array. Per the paper, square brackets do not
// imply a pointer: struct{i32;i32;i32} is equivalent to [3 x i32].
type ArrayType struct {
	Elem Type
	Len  int
}

// Array returns the type [n x elem].
func Array(elem Type, n int) *ArrayType { return &ArrayType{Elem: elem, Len: n} }

func (t *ArrayType) Kind() Kind { return KindArray }
func (t *ArrayType) Size() int {
	return t.Len * pad(t.Elem.Size(), t.Elem.Align())
}
func (t *ArrayType) Align() int     { return t.Elem.Align() }
func (t *ArrayType) Key() string    { return fmt.Sprintf("[%dx%s]", t.Len, t.Elem.Key()) }
func (t *ArrayType) String() string { return fmt.Sprintf("[%d x %s]", t.Len, t.Elem.String()) }

// StructType is a structure. A StructType with a non-empty Name is an
// identified (nominal) struct whose body may be set once via SetBody; this
// is what allows recursive types such as linked lists. Anonymous structs
// are purely structural.
type StructType struct {
	Name   string
	fields []Type
	set    bool
}

// Struct returns an anonymous struct with the given field types.
func Struct(fields ...Type) *StructType {
	return &StructType{fields: fields, set: true}
}

// NamedStruct creates an identified struct with no body. The body must be
// provided later with SetBody before Size or field access is used.
func NamedStruct(name string) *StructType {
	if name == "" {
		panic("ir: NamedStruct requires a non-empty name")
	}
	return &StructType{Name: name}
}

// SetBody sets the field list of an identified struct. It panics if the
// body was already set (types are immutable once complete).
func (t *StructType) SetBody(fields ...Type) *StructType {
	if t.set {
		panic(fmt.Sprintf("ir: struct %s body already set", t.Name))
	}
	t.fields = fields
	t.set = true
	return t
}

// Opaque reports whether the struct's body has not been set.
func (t *StructType) Opaque() bool { return !t.set }

// NumFields returns the number of fields.
func (t *StructType) NumFields() int { return len(t.fields) }

// Field returns the type of field i.
func (t *StructType) Field(i int) Type { return t.fields[i] }

// Fields returns a copy of the field list.
func (t *StructType) Fields() []Type {
	out := make([]Type, len(t.fields))
	copy(out, t.fields)
	return out
}

// Offset returns the byte offset of field i, accounting for alignment
// padding of all preceding fields.
func (t *StructType) Offset(i int) int {
	off := 0
	for j := 0; j < i; j++ {
		f := t.fields[j]
		off = pad(off, f.Align())
		off += f.Size()
	}
	return pad(off, t.fields[i].Align())
}

func (t *StructType) Kind() Kind { return KindStruct }

func (t *StructType) Size() int {
	if !t.set {
		panic(fmt.Sprintf("ir: sizeof opaque struct %s", t.Name))
	}
	off := 0
	for _, f := range t.fields {
		off = pad(off, f.Align())
		off += f.Size()
	}
	return pad(off, t.Align())
}

func (t *StructType) Align() int {
	a := 1
	for _, f := range t.fields {
		if f.Align() > a {
			a = f.Align()
		}
	}
	return a
}

func (t *StructType) Key() string {
	if t.Name != "" {
		return "%" + t.Name
	}
	keys := make([]string, len(t.fields))
	for i, f := range t.fields {
		keys[i] = f.Key()
	}
	return "{" + strings.Join(keys, ",") + "}"
}

func (t *StructType) String() string {
	if t.Name != "" {
		return "%" + t.Name
	}
	return t.BodyString()
}

// BodyString renders the struct body regardless of naming, for printing
// type definitions.
func (t *StructType) BodyString() string {
	if !t.set {
		return "opaque"
	}
	parts := make([]string, len(t.fields))
	for i, f := range t.fields {
		parts[i] = f.String()
	}
	return "{ " + strings.Join(parts, "; ") + " }"
}

// UnionType is a C-style union: storage is shared among the element types.
type UnionType struct {
	Name  string
	elems []Type
	set   bool
}

// Union returns an anonymous union over the given element types.
func Union(elems ...Type) *UnionType { return &UnionType{elems: elems, set: true} }

// NamedUnion creates an identified union with no body.
func NamedUnion(name string) *UnionType {
	if name == "" {
		panic("ir: NamedUnion requires a non-empty name")
	}
	return &UnionType{Name: name}
}

// SetBody sets the element list of an identified union.
func (t *UnionType) SetBody(elems ...Type) *UnionType {
	if t.set {
		panic(fmt.Sprintf("ir: union %s body already set", t.Name))
	}
	t.elems = elems
	t.set = true
	return t
}

// NumElems returns the number of union members.
func (t *UnionType) NumElems() int { return len(t.elems) }

// Elem returns union member i.
func (t *UnionType) Elem(i int) Type { return t.elems[i] }

func (t *UnionType) Kind() Kind { return KindUnion }

func (t *UnionType) Size() int {
	s := 0
	for _, e := range t.elems {
		if e.Size() > s {
			s = e.Size()
		}
	}
	return pad(s, t.Align())
}

func (t *UnionType) Align() int {
	a := 1
	for _, e := range t.elems {
		if e.Align() > a {
			a = e.Align()
		}
	}
	return a
}

func (t *UnionType) Key() string {
	if t.Name != "" {
		return "%u." + t.Name
	}
	keys := make([]string, len(t.elems))
	for i, e := range t.elems {
		keys[i] = e.Key()
	}
	return "u{" + strings.Join(keys, ",") + "}"
}

func (t *UnionType) String() string {
	if t.Name != "" {
		return "%u." + t.Name
	}
	parts := make([]string, len(t.elems))
	for i, e := range t.elems {
		parts[i] = e.String()
	}
	return "union{ " + strings.Join(parts, "; ") + " }"
}

// FuncType is a function type. Functions return up to one scalar value and
// take scalar parameters (paper Chapter 2 assumptions). Ret is Void for
// functions with no return value.
type FuncType struct {
	Ret    Type
	Params []Type
}

// FuncOf returns the function type ret(params...).
func FuncOf(ret Type, params ...Type) *FuncType {
	return &FuncType{Ret: ret, Params: params}
}

func (t *FuncType) Kind() Kind { return KindFunc }
func (t *FuncType) Size() int  { return 0 }
func (t *FuncType) Align() int { return 1 }

func (t *FuncType) Key() string {
	keys := make([]string, len(t.Params))
	for i, p := range t.Params {
		keys[i] = p.Key()
	}
	return t.Ret.Key() + "(" + strings.Join(keys, ",") + ")"
}

func (t *FuncType) String() string {
	parts := make([]string, len(t.Params))
	for i, p := range t.Params {
		parts[i] = p.String()
	}
	return t.Ret.String() + " (" + strings.Join(parts, ", ") + ")"
}

// pad rounds n up to the next multiple of align.
func pad(n, align int) int {
	if align <= 1 {
		return n
	}
	return (n + align - 1) / align * align
}

// ContainsPointerOutsideFunc reports whether t contains a pointer anywhere
// outside of function types. This is the paper's
// containsPointerOutsideFunType() predicate used to short-circuit shadow
// type construction (Figure 2.5, line 17).
func ContainsPointerOutsideFunc(t Type) bool {
	return containsPtr(t, make(map[string]bool))
}

func containsPtr(t Type, seen map[string]bool) bool {
	switch tt := t.(type) {
	case *PointerType:
		return true
	case *ArrayType:
		return containsPtr(tt.Elem, seen)
	case *StructType:
		if tt.Name != "" {
			if seen[tt.Key()] {
				return false
			}
			seen[tt.Key()] = true
		}
		for _, f := range tt.fields {
			if containsPtr(f, seen) {
				return true
			}
		}
		return false
	case *UnionType:
		if tt.Name != "" {
			if seen[tt.Key()] {
				return false
			}
			seen[tt.Key()] = true
		}
		for _, e := range tt.elems {
			if containsPtr(e, seen) {
				return true
			}
		}
		return false
	default:
		return false
	}
}
