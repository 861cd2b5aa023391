package blas_test

import (
	"math"
	"testing"
	"testing/quick"

	"adept/internal/blas"
)

func matEqual(a, b blas.Matrix, tol float64) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i := range a.Data {
		if math.Abs(a.Data[i]-b.Data[i]) > tol {
			return false
		}
	}
	return true
}

func TestDgemmKnownProduct(t *testing.T) {
	a := blas.Matrix{Rows: 2, Cols: 3, Data: []float64{1, 2, 3, 4, 5, 6}}
	b := blas.Matrix{Rows: 3, Cols: 2, Data: []float64{7, 8, 9, 10, 11, 12}}
	c := blas.NewMatrix(2, 2)
	if err := blas.Dgemm(1, a, b, 0, &c); err != nil {
		t.Fatal(err)
	}
	want := []float64{58, 64, 139, 154}
	for i, v := range want {
		if c.Data[i] != v {
			t.Fatalf("C = %v, want %v", c.Data, want)
		}
	}
}

func TestDgemmAlphaBeta(t *testing.T) {
	a := blas.Matrix{Rows: 1, Cols: 1, Data: []float64{3}}
	b := blas.Matrix{Rows: 1, Cols: 1, Data: []float64{5}}
	c := blas.Matrix{Rows: 1, Cols: 1, Data: []float64{10}}
	// C = 2·A·B + 0.5·C = 30 + 5 = 35.
	if err := blas.Dgemm(2, a, b, 0.5, &c); err != nil {
		t.Fatal(err)
	}
	if c.Data[0] != 35 {
		t.Errorf("C = %g, want 35", c.Data[0])
	}
}

func TestDgemmShapeErrors(t *testing.T) {
	a := blas.NewMatrix(2, 3)
	b := blas.NewMatrix(2, 3) // incompatible: needs 3 rows
	c := blas.NewMatrix(2, 3)
	if err := blas.Dgemm(1, a, b, 0, &c); err == nil {
		t.Error("incompatible shapes accepted")
	}
	b2 := blas.NewMatrix(3, 2)
	bad := blas.NewMatrix(3, 3) // wrong result shape
	if err := blas.Dgemm(1, a, b2, 0, &bad); err == nil {
		t.Error("wrong result shape accepted")
	}
}

func TestVariantsAgree(t *testing.T) {
	for _, n := range []int{1, 7, 33, 64, 65} {
		a := blas.RandomMatrix(n, n, int64(n))
		b := blas.RandomMatrix(n, n, int64(n)+100)
		ref := blas.NewMatrix(n, n)
		if err := blas.Dgemm(1, a, b, 0, &ref); err != nil {
			t.Fatal(err)
		}
		blocked := blas.NewMatrix(n, n)
		if err := blas.DgemmBlocked(1, a, b, 0, &blocked, 16); err != nil {
			t.Fatal(err)
		}
		if !matEqual(ref, blocked, 1e-9) {
			t.Errorf("n=%d: blocked kernel disagrees with naive", n)
		}
	}
}

// Property: DGEMM distributes over addition: A·(B1+B2) = A·B1 + A·B2.
func TestPropertyDistributive(t *testing.T) {
	f := func(seed int64) bool {
		n := 6
		a := blas.RandomMatrix(n, n, seed)
		b1 := blas.RandomMatrix(n, n, seed+1)
		b2 := blas.RandomMatrix(n, n, seed+2)
		sum := blas.NewMatrix(n, n)
		for i := range sum.Data {
			sum.Data[i] = b1.Data[i] + b2.Data[i]
		}
		left := blas.NewMatrix(n, n)
		if err := blas.DgemmBlocked(1, a, sum, 0, &left, 4); err != nil {
			return false
		}
		right := blas.NewMatrix(n, n)
		if err := blas.DgemmBlocked(1, a, b1, 0, &right, 4); err != nil {
			return false
		}
		if err := blas.DgemmBlocked(1, a, b2, 1, &right, 4); err != nil {
			return false
		}
		return matEqual(left, right, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func BenchmarkDgemmNaive128(b *testing.B) {
	x := blas.RandomMatrix(128, 128, 1)
	y := blas.RandomMatrix(128, 128, 2)
	c := blas.NewMatrix(128, 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := blas.Dgemm(1, x, y, 0, &c); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDgemmBlocked128(b *testing.B) {
	x := blas.RandomMatrix(128, 128, 1)
	y := blas.RandomMatrix(128, 128, 2)
	c := blas.NewMatrix(128, 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := blas.DgemmBlocked(1, x, y, 0, &c, 0); err != nil {
			b.Fatal(err)
		}
	}
}
