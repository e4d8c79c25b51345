package decluster

import (
	"fmt"
	"slices"

	"fxdist/internal/field"
)

// Method names a declustering method in a Spec.
type Method string

// Supported methods.
const (
	MethodFX     Method = "fx"
	MethodModulo Method = "modulo"
	MethodGDM    Method = "gdm"
	MethodDHW    Method = "dhw"
)

// Spec is a serializable description of an allocator: everything needed
// to reconstruct the same bucket-to-device mapping on another process or
// machine. The distributed retrieval layer ships Specs to device servers;
// the persistence layer stores them alongside file snapshots.
type Spec struct {
	// Sizes and M describe the file system.
	Sizes []int
	M     int
	// Method selects the allocation method.
	Method Method
	// Kinds holds the per-field transformation methods for MethodFX
	// (values of field.Kind).
	Kinds []int
	// Multipliers holds the per-field multipliers for MethodGDM.
	Multipliers []int
}

// Equal reports whether s and o describe the same allocator: one method,
// M and grid, and the same per-field parameters.
func (s Spec) Equal(o Spec) bool {
	return s.Method == o.Method && s.M == o.M && slices.Equal(s.Sizes, o.Sizes) &&
		slices.Equal(s.Kinds, o.Kinds) && slices.Equal(s.Multipliers, o.Multipliers)
}

// SpecOf extracts a Spec from a supported allocator. It returns an error
// for allocator types outside this package.
func SpecOf(a Allocator) (Spec, error) {
	fs := a.FileSystem()
	spec := Spec{Sizes: append([]int(nil), fs.Sizes...), M: fs.M}
	switch impl := a.(type) {
	case *FX:
		spec.Method = MethodFX
		for _, k := range impl.Plan().Kinds() {
			spec.Kinds = append(spec.Kinds, int(k))
		}
	case *Modulo:
		spec.Method = MethodModulo
	case *GDM:
		spec.Method = MethodGDM
		spec.Multipliers = impl.Multipliers()
	case *DHW:
		spec.Method = MethodDHW
	default:
		return Spec{}, fmt.Errorf("decluster: cannot describe allocator type %T", a)
	}
	return spec, nil
}

// Build reconstructs the allocator the spec describes.
func (s Spec) Build() (GroupAllocator, error) {
	fs, err := NewFileSystem(s.Sizes, s.M)
	if err != nil {
		return nil, err
	}
	switch s.Method {
	case MethodFX:
		if len(s.Kinds) != len(s.Sizes) {
			return nil, fmt.Errorf("decluster: spec has %d kinds for %d fields", len(s.Kinds), len(s.Sizes))
		}
		kinds := make([]field.Kind, len(s.Kinds))
		for i, k := range s.Kinds {
			if k < int(field.I) || k > int(field.IU2) {
				return nil, fmt.Errorf("decluster: spec kind %d of field %d is not a transformation method", k, i)
			}
			kinds[i] = field.Kind(k)
		}
		return NewFX(fs, field.WithKinds(kinds))
	case MethodModulo:
		return NewModulo(fs), nil
	case MethodGDM:
		return NewGDM(fs, s.Multipliers)
	case MethodDHW:
		return NewDHW(fs), nil
	default:
		return nil, fmt.Errorf("decluster: unknown method %q", s.Method)
	}
}

// Rescaled returns the spec for the same file redeclustered over newM
// devices — the elastic-rescale derivation. Only doubling (newM == 2*M)
// and halving (newM == M/2) are supported: those are the steps where
// the T_M low-bit identity makes the new owner of every bucket
// derivable from its old one (doubling M appends one low bit to T_M).
// The method and its per-field parameters are preserved; whether the
// derivation identity actually holds for the rebuilt allocator is
// checked by rebalance.VerifyDerivation, not assumed here.
func (s Spec) Rescaled(newM int) (Spec, error) {
	if newM != 2*s.M && s.M != 2*newM {
		return Spec{}, fmt.Errorf("decluster: rescale M=%d to %d: only doubling or halving is supported", s.M, newM)
	}
	ns := s
	ns.M = newM
	ns.Sizes = append([]int(nil), s.Sizes...)
	ns.Kinds = append([]int(nil), s.Kinds...)
	ns.Multipliers = append([]int(nil), s.Multipliers...)
	return ns, nil
}
