//! Small utilities: the dense bit set and bit matrix the analyses use.

/// A fixed-capacity dense bit set over `usize` indices.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct BitSet {
    words: Vec<u64>,
    len: usize,
}

impl BitSet {
    /// An empty set with capacity for `len` elements.
    pub fn new(len: usize) -> Self {
        BitSet {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// Capacity (number of addressable indices).
    pub fn capacity(&self) -> usize {
        self.len
    }

    /// Insert `i`; returns `true` if it was newly inserted.
    ///
    /// # Panics
    /// Panics if `i` is out of capacity.
    pub fn insert(&mut self, i: usize) -> bool {
        assert!(
            i < self.len,
            "bitset index {i} out of capacity {}",
            self.len
        );
        let (w, b) = (i / 64, i % 64);
        let had = self.words[w] & (1 << b) != 0;
        self.words[w] |= 1 << b;
        !had
    }

    /// Remove `i`; returns `true` if it was present.
    pub fn remove(&mut self, i: usize) -> bool {
        assert!(
            i < self.len,
            "bitset index {i} out of capacity {}",
            self.len
        );
        let (w, b) = (i / 64, i % 64);
        let had = self.words[w] & (1 << b) != 0;
        self.words[w] &= !(1 << b);
        had
    }

    /// Membership test.
    pub fn contains(&self, i: usize) -> bool {
        if i >= self.len {
            return false;
        }
        self.words[i / 64] & (1 << (i % 64)) != 0
    }

    /// Number of elements present.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Overwrite `self` with row `r` of `m`.
    ///
    /// # Panics
    /// Panics if `m`'s rows are not `self`'s capacity wide.
    pub fn copy_from_row(&mut self, m: &BitMatrix, r: usize) {
        assert_eq!(self.len, m.cols, "bitset capacity mismatch");
        self.words.copy_from_slice(m.row(r));
    }

    /// Iterate over present indices in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        iter_words(&self.words)
    }

    /// The set's words, laid out as a [`BitMatrix`] row of the same width.
    pub(crate) fn words(&self) -> &[u64] {
        &self.words
    }
}

/// The set bits of `words`, in ascending order.
fn iter_words(words: &[u64]) -> impl Iterator<Item = usize> + '_ {
    words.iter().enumerate().flat_map(|(wi, &w)| {
        let mut bits = w;
        std::iter::from_fn(move || {
            (bits != 0).then(|| {
                let b = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                wi * 64 + b
            })
        })
    })
}

/// A dense `rows × cols` bit matrix in one allocation: row `r` is a
/// `cols`-bit set stored in the `stride` words at `r * stride`. The
/// analyses keep one row per block (or per vreg), so a whole per-block
/// solution costs one allocation instead of one per block.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct BitMatrix {
    rows: usize,
    cols: usize,
    stride: usize,
    words: Vec<u64>,
}

impl BitMatrix {
    /// An all-clear matrix.
    pub fn new(rows: usize, cols: usize) -> Self {
        let stride = cols.div_ceil(64);
        BitMatrix {
            rows,
            cols,
            stride,
            words: vec![0; rows * stride],
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns (each row's capacity).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Row `r`'s words; bits at and beyond `cols` are always clear.
    pub fn row(&self, r: usize) -> &[u64] {
        &self.words[r * self.stride..(r + 1) * self.stride]
    }

    /// Row `r`'s words, mutably. Callers keep the bits beyond `cols` clear.
    pub fn row_mut(&mut self, r: usize) -> &mut [u64] {
        &mut self.words[r * self.stride..(r + 1) * self.stride]
    }

    /// Set every column of row `r`.
    pub fn fill_row(&mut self, r: usize) {
        let cols = self.cols;
        let row = self.row_mut(r);
        row.fill(!0);
        if !cols.is_multiple_of(64) {
            if let Some(last) = row.last_mut() {
                *last = (1u64 << (cols % 64)) - 1;
            }
        }
    }

    /// Set bit `(r, c)`; returns `true` if it was clear.
    ///
    /// # Panics
    /// Panics if `c` is out of range.
    pub fn insert(&mut self, r: usize, c: usize) -> bool {
        assert!(c < self.cols, "bit matrix column {c} out of {}", self.cols);
        let w = &mut self.words[r * self.stride + c / 64];
        let had = *w & (1 << (c % 64)) != 0;
        *w |= 1 << (c % 64);
        !had
    }

    /// Is bit `(r, c)` set? Columns out of range read as clear.
    pub fn contains(&self, r: usize, c: usize) -> bool {
        c < self.cols && self.words[r * self.stride + c / 64] & (1 << (c % 64)) != 0
    }

    /// The set columns of row `r`, in ascending order.
    pub fn iter_row(&self, r: usize) -> impl Iterator<Item = usize> + '_ {
        iter_words(self.row(r))
    }

    /// Number of set columns in row `r`.
    pub fn count_row(&self, r: usize) -> usize {
        self.row(r).iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Is row `r` clear?
    pub fn row_is_empty(&self, r: usize) -> bool {
        self.row(r).iter().all(|w| *w == 0)
    }

    /// Do rows `a` and `b` share a set column?
    pub fn rows_intersect(&self, a: usize, b: usize) -> bool {
        self.row(a).iter().zip(self.row(b)).any(|(x, y)| x & y != 0)
    }
}

impl FromIterator<usize> for BitSet {
    /// Builds a set sized to the maximum element + 1.
    fn from_iter<T: IntoIterator<Item = usize>>(iter: T) -> Self {
        let items: Vec<usize> = iter.into_iter().collect();
        let cap = items.iter().max().map_or(0, |m| m + 1);
        let mut s = BitSet::new(cap);
        for i in items {
            s.insert(i);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_remove() {
        let mut s = BitSet::new(130);
        assert!(s.insert(0));
        assert!(s.insert(129));
        assert!(!s.insert(129));
        assert!(s.contains(0));
        assert!(s.contains(129));
        assert!(!s.contains(64));
        assert!(s.remove(129));
        assert!(!s.remove(129));
        assert_eq!(s.count(), 1);
    }

    #[test]
    fn iter_ascending() {
        let s: BitSet = [5usize, 1, 99, 64].into_iter().collect();
        let v: Vec<usize> = s.iter().collect();
        assert_eq!(v, vec![1, 5, 64, 99]);
    }

    #[test]
    fn out_of_range_contains_is_false() {
        let s = BitSet::new(8);
        assert!(!s.contains(100));
    }

    #[test]
    fn filled_row_holds_exactly_the_columns() {
        // A filled row is the ⊤ of must-dataflow lattices: every column,
        // and no bit past the last one.
        for cols in [0usize, 1, 63, 64, 65, 130] {
            let mut m = BitMatrix::new(2, cols);
            m.fill_row(1);
            assert_eq!(m.count_row(1), cols, "fill_row over {cols} columns");
            assert!((0..cols).all(|c| m.contains(1, c)));
            assert!(!m.contains(1, cols));
            assert!(m.row_is_empty(0));
        }
    }

    #[test]
    fn matrix_rows_are_independent_sets() {
        let mut m = BitMatrix::new(3, 70);
        assert!(m.insert(1, 69));
        assert!(!m.insert(1, 69));
        assert!(m.insert(2, 3));
        assert!(m.contains(1, 69) && !m.contains(0, 69) && !m.contains(2, 69));
        assert!(!m.contains(1, 70), "out-of-range columns read as clear");
        assert_eq!(m.iter_row(1).collect::<Vec<_>>(), vec![69]);
        assert!(m.row_is_empty(0));
        assert!(!m.rows_intersect(1, 2));
        m.insert(2, 69);
        assert!(m.rows_intersect(1, 2));
        m.fill_row(0);
        assert_eq!(m.count_row(0), 70, "a full row stops at the column count");
        let mut s = BitSet::new(70);
        s.copy_from_row(&m, 2);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![3, 69]);
    }
}
