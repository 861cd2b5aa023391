// Package blas implements the dense linear-algebra kernels the paper's
// evaluation is built on: DGEMM, the level-3 BLAS general matrix-matrix
// multiplication used as the client application in every experiment, in
// naive and cache-blocked variants. The middleware runtime executes the
// blocked kernel for real during the service phase, so measured
// deployments do genuine floating-point work.
package blas

import (
	"errors"
	"fmt"
	"math/rand"
)

// Matrix is a dense row-major float64 matrix.
type Matrix struct {
	Rows, Cols int
	// Data holds Rows*Cols values, row-major.
	Data []float64
}

// NewMatrix allocates a zero matrix.
func NewMatrix(rows, cols int) Matrix {
	if rows < 0 || cols < 0 {
		panic("blas: negative matrix dimension")
	}
	return Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// RandomMatrix fills a matrix with deterministic pseudo-random values in
// [-1, 1).
func RandomMatrix(rows, cols int, seed int64) Matrix {
	m := NewMatrix(rows, cols)
	rng := rand.New(rand.NewSource(seed))
	for i := range m.Data {
		m.Data[i] = 2*rng.Float64() - 1
	}
	return m
}

// ErrShape reports incompatible operand shapes.
var ErrShape = errors.New("blas: incompatible matrix shapes")

func checkMul(a, b Matrix, c *Matrix) error {
	if a.Cols != b.Rows {
		return fmt.Errorf("%w: (%dx%d)·(%dx%d)", ErrShape, a.Rows, a.Cols, b.Rows, b.Cols)
	}
	if c.Rows != a.Rows || c.Cols != b.Cols {
		return fmt.Errorf("%w: result is %dx%d, want %dx%d", ErrShape, c.Rows, c.Cols, a.Rows, b.Cols)
	}
	return nil
}

// Dgemm computes C = alpha·A·B + beta·C with the naive triple loop in ikj
// order (streaming-friendly for row-major data).
func Dgemm(alpha float64, a, b Matrix, beta float64, c *Matrix) error {
	if err := checkMul(a, b, c); err != nil {
		return err
	}
	if beta != 1 {
		for i := range c.Data {
			c.Data[i] *= beta
		}
	}
	n, k, m := a.Rows, a.Cols, b.Cols
	for i := 0; i < n; i++ {
		arow := a.Data[i*k : (i+1)*k]
		crow := c.Data[i*m : (i+1)*m]
		for kk := 0; kk < k; kk++ {
			av := alpha * arow[kk]
			if av == 0 {
				continue
			}
			brow := b.Data[kk*m : (kk+1)*m]
			for j := 0; j < m; j++ {
				crow[j] += av * brow[j]
			}
		}
	}
	return nil
}

// DefaultBlock is the cache-blocking tile size used by DgemmBlocked when the
// caller passes 0.
const DefaultBlock = 64

// DgemmBlocked computes C = alpha·A·B + beta·C with square cache blocking.
func DgemmBlocked(alpha float64, a, b Matrix, beta float64, c *Matrix, block int) error {
	if err := checkMul(a, b, c); err != nil {
		return err
	}
	if block <= 0 {
		block = DefaultBlock
	}
	if beta != 1 {
		for i := range c.Data {
			c.Data[i] *= beta
		}
	}
	n, k, m := a.Rows, a.Cols, b.Cols
	for i0 := 0; i0 < n; i0 += block {
		imax := min(i0+block, n)
		for k0 := 0; k0 < k; k0 += block {
			kmax := min(k0+block, k)
			for j0 := 0; j0 < m; j0 += block {
				jmax := min(j0+block, m)
				for i := i0; i < imax; i++ {
					arow := a.Data[i*k : (i+1)*k]
					crow := c.Data[i*m : (i+1)*m]
					for kk := k0; kk < kmax; kk++ {
						av := alpha * arow[kk]
						if av == 0 {
							continue
						}
						brow := b.Data[kk*m : (kk+1)*m]
						for j := j0; j < jmax; j++ {
							crow[j] += av * brow[j]
						}
					}
				}
			}
		}
	}
	return nil
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
