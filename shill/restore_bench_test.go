package shill_test

import (
	"testing"

	"repro/shill"
)

// BenchmarkRestoreMachine vs BenchmarkColdMachine prices a warm
// restore against a cold build: booting from an image must be much
// cheaper than building the machine, because a restore shares the
// image's flattened base layer instead of re-staging every file.

func BenchmarkRestoreMachine(b *testing.B) {
	m, err := shill.NewMachine(shill.WithWorkload(shill.WorkloadGrading))
	if err != nil {
		b.Fatal(err)
	}
	img, err := m.Snapshot()
	if err != nil {
		b.Fatal(err)
	}
	m.Close()
	// Prime the flatten cache; steady state is what a frontend sees.
	if r, err := shill.RestoreMachine(img); err != nil {
		b.Fatal(err)
	} else {
		r.Close()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := shill.RestoreMachine(img)
		if err != nil {
			b.Fatal(err)
		}
		r.Close()
	}
}

func BenchmarkColdMachine(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m, err := shill.NewMachine(shill.WithWorkload(shill.WorkloadGrading))
		if err != nil {
			b.Fatal(err)
		}
		m.Close()
	}
}
