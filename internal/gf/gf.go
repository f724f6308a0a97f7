// Package gf implements arithmetic in binary Galois fields GF(2^g) for
// 1 <= g <= 16, together with vector and matrix operations over those
// fields.
//
// Its consumer in this repository is Stage-3 dispersion of index
// records: an invertible k×k matrix over GF(2^g) splits each chunk into
// k pieces stored on k sites.
//
// Fields are represented by log/antilog tables generated from a fixed
// primitive polynomial per width, so multiplication and division are two
// table lookups and one addition. All operations are constant-time in the
// size of the field element and allocation-free.
package gf

import "fmt"

// Elem is a field element. Only the low g bits are significant for a
// field GF(2^g); the remaining bits must be zero.
type Elem uint32

// primitivePolys[g] is a primitive polynomial of degree g over GF(2),
// written with the leading x^g term included. These are the conventional
// choices (e.g. 0x11D for GF(2^8) as used by Reed–Solomon codes and
// 0x1100B for GF(2^16) as used by LH*RS).
var primitivePolys = [17]uint32{
	0,       // g=0: unused
	0x3,     // x + 1
	0x7,     // x^2 + x + 1
	0xB,     // x^3 + x + 1
	0x13,    // x^4 + x + 1
	0x25,    // x^5 + x^2 + 1
	0x43,    // x^6 + x + 1
	0x89,    // x^7 + x^3 + 1
	0x11D,   // x^8 + x^4 + x^3 + x^2 + 1
	0x211,   // x^9 + x^4 + 1
	0x409,   // x^10 + x^3 + 1
	0x805,   // x^11 + x^2 + 1
	0x1053,  // x^12 + x^6 + x^4 + x + 1
	0x201B,  // x^13 + x^4 + x^3 + x + 1
	0x4143,  // x^14 + x^8 + x^6 + x + 1
	0x8003,  // x^15 + x + 1
	0x1100B, // x^16 + x^12 + x^3 + x + 1
}

// Field holds the tables for one GF(2^g).
type Field struct {
	g    uint     // field width in bits
	size uint32   // 2^g
	mask uint32   // 2^g - 1
	poly uint32   // primitive polynomial (with leading term)
	log  []uint32 // log[a] for a != 0: discrete log base alpha
	exp  []Elem   // exp[i] = alpha^i, doubled to avoid a mod
}

var fieldCache [17]*Field

// New returns the field GF(2^g). Fields are cached and immutable, so the
// returned pointer may be shared freely between goroutines.
func New(g uint) (*Field, error) {
	if g < 1 || g > 16 {
		return nil, fmt.Errorf("gf: unsupported field width %d (want 1..16)", g)
	}
	if f := fieldCache[g]; f != nil {
		return f, nil
	}
	f := &Field{
		g:    g,
		size: 1 << g,
		mask: 1<<g - 1,
		poly: primitivePolys[g],
	}
	f.buildTables()
	fieldCache[g] = f
	return f, nil
}

// MustNew is New but panics on an invalid width. Use for package-level
// initialization with constant widths.
func MustNew(g uint) *Field {
	f, err := New(g)
	if err != nil {
		panic(err)
	}
	return f
}

func (f *Field) buildTables() {
	n := int(f.size)
	f.log = make([]uint32, n)
	f.exp = make([]Elem, 2*n) // doubled so exp[log a + log b] needs no mod
	x := uint32(1)
	for i := 0; i < n-1; i++ {
		f.exp[i] = Elem(x)
		f.log[x] = uint32(i)
		x <<= 1
		if x&f.size != 0 {
			x ^= f.poly
		}
	}
	// Extend the exp table for the no-mod multiplication trick.
	for i := n - 1; i < 2*n; i++ {
		f.exp[i] = f.exp[i-(n-1)]
	}
}

// Width returns g, the field width in bits.
func (f *Field) Width() uint { return f.g }

// Size returns 2^g, the number of field elements.
func (f *Field) Size() uint32 { return f.size }

// Mask returns 2^g - 1.
func (f *Field) Mask() uint32 { return f.mask }

// Valid reports whether a fits in the field.
func (f *Field) Valid(a Elem) bool { return uint32(a)&^f.mask == 0 }

// Add returns a + b. In characteristic 2 addition and subtraction are both
// XOR, so Sub is the same operation.
func (f *Field) Add(a, b Elem) Elem { return a ^ b }

// Sub returns a - b (identical to Add in GF(2^g)).
func (f *Field) Sub(a, b Elem) Elem { return a ^ b }

// Mul returns a * b.
func (f *Field) Mul(a, b Elem) Elem {
	if a == 0 || b == 0 {
		return 0
	}
	return f.exp[f.log[a]+f.log[b]]
}

// Div returns a / b. Division by zero panics, mirroring integer division.
func (f *Field) Div(a, b Elem) Elem {
	if b == 0 {
		panic("gf: division by zero")
	}
	if a == 0 {
		return 0
	}
	la, lb := f.log[a], f.log[b]
	if la < lb {
		la += f.size - 1
	}
	return f.exp[la-lb]
}

// Inv returns the multiplicative inverse of a. Inverting zero panics.
func (f *Field) Inv(a Elem) Elem {
	if a == 0 {
		panic("gf: inverse of zero")
	}
	return f.exp[(f.size-1)-f.log[a]]
}

// Exp returns alpha^i for the field generator alpha.
func (f *Field) Exp(i uint32) Elem { return f.exp[i%(f.size-1)] }

// Log returns the discrete logarithm of a base alpha. Log of zero panics.
func (f *Field) Log(a Elem) uint32 {
	if a == 0 {
		panic("gf: log of zero")
	}
	return f.log[a]
}

// Pow returns a^n (with a^0 == 1, including 0^0 == 1 by convention).
func (f *Field) Pow(a Elem, n uint32) Elem {
	if n == 0 {
		return 1
	}
	if a == 0 {
		return 0
	}
	l := uint64(f.log[a]) * uint64(n)
	return f.exp[uint32(l%uint64(f.size-1))]
}

// MulSlice computes dst[i] = c * src[i] for all i. dst and src must have
// equal length; dst may alias src.
func (f *Field) MulSlice(dst, src []Elem, c Elem) {
	if len(dst) != len(src) {
		panic("gf: MulSlice length mismatch")
	}
	if c == 0 {
		for i := range dst {
			dst[i] = 0
		}
		return
	}
	lc := f.log[c]
	for i, a := range src {
		if a == 0 {
			dst[i] = 0
		} else {
			dst[i] = f.exp[f.log[a]+lc]
		}
	}
}

// AddMulSlice computes dst[i] ^= c * src[i] for all i — the core
// Reed–Solomon inner loop.
func (f *Field) AddMulSlice(dst, src []Elem, c Elem) {
	if len(dst) != len(src) {
		panic("gf: AddMulSlice length mismatch")
	}
	if c == 0 {
		return
	}
	lc := f.log[c]
	for i, a := range src {
		if a != 0 {
			dst[i] ^= f.exp[f.log[a]+lc]
		}
	}
}

// DotVec returns the inner product of two equal-length vectors.
func (f *Field) DotVec(a, b []Elem) Elem {
	if len(a) != len(b) {
		panic("gf: DotVec length mismatch")
	}
	var acc Elem
	for i := range a {
		acc ^= f.Mul(a[i], b[i])
	}
	return acc
}
