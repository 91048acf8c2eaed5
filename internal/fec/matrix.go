package fec

import "fmt"

// matrix is a dense row-major matrix over GF(2^8).
type matrix struct {
	rows, cols int
	data       []byte
}

func newMatrix(rows, cols int) *matrix {
	return &matrix{rows: rows, cols: cols, data: make([]byte, rows*cols)}
}

func (m *matrix) at(r, c int) byte     { return m.data[r*m.cols+c] }
func (m *matrix) set(r, c int, v byte) { m.data[r*m.cols+c] = v }
func (m *matrix) row(r int) []byte     { return m.data[r*m.cols : (r+1)*m.cols] }
func (m *matrix) swapRows(i, j int) {
	ri, rj := m.row(i), m.row(j)
	for k := range ri {
		ri[k], rj[k] = rj[k], ri[k]
	}
}

// clone returns a deep copy.
func (m *matrix) clone() *matrix {
	c := newMatrix(m.rows, m.cols)
	copy(c.data, m.data)
	return c
}

// identity returns the n×n identity matrix.
func identity(n int) *matrix {
	m := newMatrix(n, n)
	for i := 0; i < n; i++ {
		m.set(i, i, 1)
	}
	return m
}

// vandermonde returns the n×k matrix with entry (i, j) = x_i^j where the
// evaluation points x_i = i are distinct, so every k×k submatrix built
// from distinct rows is invertible (standard Vandermonde property after
// the systematic transform below).
func vandermonde(n, k int) *matrix {
	m := newMatrix(n, k)
	for i := 0; i < n; i++ {
		for j := 0; j < k; j++ {
			m.set(i, j, gfPow(byte(i), j))
		}
	}
	return m
}

// mul returns m × o.
func (m *matrix) mul(o *matrix) *matrix {
	if m.cols != o.rows {
		panic(fmt.Sprintf("fec: matrix size mismatch %dx%d × %dx%d", m.rows, m.cols, o.rows, o.cols))
	}
	out := newMatrix(m.rows, o.cols)
	orows := make([][]byte, o.rows)
	for l := range orows {
		orows[l] = o.row(l)
	}
	for i := 0; i < m.rows; i++ {
		addMulRows(out.row(i), orows, m.row(i))
	}
	return out
}

// invert returns m⁻¹ via Gauss–Jordan elimination, or an error if m is
// singular. m must be square; it is not modified.
func (m *matrix) invert() (*matrix, error) {
	if m.rows != m.cols {
		panic("fec: invert on non-square matrix")
	}
	n := m.rows
	a := m.clone()
	inv := identity(n)
	for col := 0; col < n; col++ {
		// Find a pivot.
		pivot := -1
		for r := col; r < n; r++ {
			if a.at(r, col) != 0 {
				pivot = r
				break
			}
		}
		if pivot < 0 {
			return nil, fmt.Errorf("fec: singular matrix at column %d", col)
		}
		if pivot != col {
			a.swapRows(pivot, col)
			inv.swapRows(pivot, col)
		}
		// Scale pivot row to make the pivot 1.
		if p := a.at(col, col); p != 1 {
			ip := gfInv(p)
			mulSlice(a.row(col), a.row(col), ip)
			mulSlice(inv.row(col), inv.row(col), ip)
		}
		// Eliminate the column from every other row.
		for r := 0; r < n; r++ {
			if r == col {
				continue
			}
			if c := a.at(r, col); c != 0 {
				addMulSlice(a.row(r), a.row(col), c)
				addMulSlice(inv.row(r), inv.row(col), c)
			}
		}
	}
	return inv, nil
}

// subMatrixRows returns a new matrix formed from the given rows of m.
func (m *matrix) subMatrixRows(rows []int) *matrix {
	out := newMatrix(len(rows), m.cols)
	for i, r := range rows {
		copy(out.row(i), m.row(r))
	}
	return out
}
