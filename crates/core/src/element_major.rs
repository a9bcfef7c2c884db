//! The element-major layout of the convolutions: lane-group slabs, and the
//! energy-outer walks that fill and drain them.
//!
//! A [`LanePlanes`] holds one component (`X^<`, `X^>` or `X^R`) of the
//! energy series of a run of canonical elements as split real/imaginary
//! planes indexed `[group][energy][lane]`: [`LANES`] consecutive elements
//! form a lane group, the tail group is zero-padded. One energy of one group
//! is a *lane row* — eight `f64` per plane, one vector register on an
//! AVX-512 target — so a convolution kernel transforms the eight series of a
//! group in one lane FFT (`crate::convolution`), and the transpositions read
//! and write whole rows.
//!
//! Energy-major data reaches the rows through `ElementSlots`: where each
//! canonical element and its mirror sit in a `BlockTridiagonal`'s storage.
//! A walk over a quantity
//! visits each energy's matrix once and copies the slots it needs, element
//! after element — the access pattern of `gather_energy` /
//! `scatter_energy` here and of the transpositions'
//! pack and unpack (`crate::dist::TranspositionPlan`).

use std::ops::Range;

use quatrex_linalg::c64;
pub use quatrex_linalg::lanes::LANES;
use quatrex_sparse::BlockTridiagonal;

use crate::convolution::{for_each_canonical, n_canonical, BlockPos};

/// One energy of one lane group in one plane.
pub type Row = [f64; LANES];

/// Lane groups of `n` elements (the tail group padded).
pub(crate) fn n_groups(n: usize) -> usize {
    n.div_ceil(LANES)
}

/// The rows of one lane group in both planes, `[energy][lane]`.
#[derive(Debug, Clone, Copy)]
pub struct GroupRows<'a> {
    /// Real parts.
    pub re: &'a [Row],
    /// Imaginary parts.
    pub im: &'a [Row],
}

/// The mutable rows of one lane group in both planes, `[energy][lane]`.
#[derive(Debug)]
pub struct GroupRowsMut<'a> {
    /// Real parts.
    pub re: &'a mut [Row],
    /// Imaginary parts.
    pub im: &'a mut [Row],
}

impl GroupRowsMut<'_> {
    /// A shorter-lived mutable view of the same rows.
    pub(crate) fn reborrow(&mut self) -> GroupRowsMut<'_> {
        GroupRowsMut {
            re: self.re,
            im: self.im,
        }
    }

    /// Shared view of the same rows.
    pub fn rows(&self) -> GroupRows<'_> {
        GroupRows {
            re: self.re,
            im: self.im,
        }
    }
}

/// One component of a lane-group slab: the `n_energies`-long series of
/// `n_elements` elements, `[group][energy][lane]` in split planes.
#[derive(Debug, Clone, PartialEq)]
pub struct LanePlanes {
    n_elements: usize,
    n_energies: usize,
    re: Vec<Row>,
    im: Vec<Row>,
}

impl LanePlanes {
    /// All-zero series of `n_elements` elements on `n_energies` energies.
    pub fn zeroed(n_elements: usize, n_energies: usize) -> Self {
        let rows = n_groups(n_elements) * n_energies;
        Self {
            n_elements,
            n_energies,
            re: vec![[0.0; LANES]; rows],
            im: vec![[0.0; LANES]; rows],
        }
    }

    /// Elements held (padding lanes excluded).
    pub(crate) fn n_elements(&self) -> usize {
        self.n_elements
    }

    /// Energies per series.
    pub fn n_energies(&self) -> usize {
        self.n_energies
    }

    /// The rows of group `g`.
    pub fn group(&self, g: usize) -> GroupRows<'_> {
        let at = g * self.n_energies..(g + 1) * self.n_energies;
        GroupRows {
            re: &self.re[at.clone()],
            im: &self.im[at],
        }
    }

    /// The mutable rows of group `g`.
    pub fn group_mut(&mut self, g: usize) -> GroupRowsMut<'_> {
        let at = g * self.n_energies..(g + 1) * self.n_energies;
        GroupRowsMut {
            re: &mut self.re[at.clone()],
            im: &mut self.im[at],
        }
    }

    /// The planes of `series`, one per element, all equally long.
    pub fn from_series<S: AsRef<[c64]>>(series: &[S]) -> Self {
        let ne = series.first().map_or(0, |s| s.as_ref().len());
        let mut planes = Self::zeroed(series.len(), ne);
        for (e, s) in series.iter().enumerate() {
            for (k, v) in s.as_ref().iter().enumerate() {
                let at = (e / LANES) * ne + k;
                (planes.re[at][e % LANES], planes.im[at][e % LANES]) = (v.re, v.im);
            }
        }
        planes
    }

    /// Zero every series and hold `n_elements` elements (keeping the
    /// allocation where it suffices).
    pub fn reset(&mut self, n_elements: usize) {
        let rows = n_groups(n_elements) * self.n_energies;
        self.n_elements = n_elements;
        for plane in [&mut self.re, &mut self.im] {
            plane.clear();
            plane.resize(rows, [0.0; LANES]);
        }
    }

    /// The value of element `e` at energy `k`.
    #[inline(always)]
    pub fn value(&self, e: usize, k: usize) -> c64 {
        let at = (e / LANES) * self.n_energies + k;
        c64::new(self.re[at][e % LANES], self.im[at][e % LANES])
    }

    /// The series of element `e`.
    pub fn series(&self, e: usize) -> Vec<c64> {
        (0..self.n_energies).map(|k| self.value(e, k)).collect()
    }

    /// Mutable row pair of group `g` at energy `k`.
    #[inline(always)]
    pub(crate) fn row_mut(&mut self, g: usize, k: usize) -> (&mut Row, &mut Row) {
        let at = g * self.n_energies + k;
        (&mut self.re[at], &mut self.im[at])
    }

    /// Row pair of group `g` at energy `k`.
    #[inline(always)]
    pub fn row(&self, g: usize, k: usize) -> (&Row, &Row) {
        let at = g * self.n_energies + k;
        (&self.re[at], &self.im[at])
    }
}

/// Where one canonical element — and with it its mirror — sits in a
/// `BlockTridiagonal`'s storage: its block in `BlockTridiagonal::blocks`
/// order, and its row and column there.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ElementSlot {
    block: u32,
    row: u16,
    col: u16,
}

/// Which element of a pair a walk reads or writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Side {
    /// The canonical element `(i, j)`.
    Canonical,
    /// Its mirror `(j, i)`.
    Mirror,
}

/// The storage slots of the canonical elements of a block-tridiagonal
/// pattern, in `crate::convolution::canonical_elements` order — the gather
/// list of the energy-outer walks. The mirror of row `r`, column `c` of a
/// block is row `c`, column `r` of the same diagonal block or of the
/// subdiagonal block under a superdiagonal one, so one list serves both
/// sides of every pair.
#[derive(Debug, Clone)]
pub(crate) struct ElementSlots {
    n_blocks: usize,
    block_size: usize,
    slots: Vec<ElementSlot>,
}

impl ElementSlots {
    /// The slots of the canonical elements of an `n_blocks × block_size`
    /// pattern.
    pub fn canonical(n_blocks: usize, block_size: usize) -> Self {
        assert!(
            block_size <= 1 << 16,
            "block size {block_size} exceeds 65536"
        );
        let mut slots = Vec::with_capacity(n_canonical(n_blocks, block_size));
        for_each_canonical(n_blocks, block_size, |id| {
            let block = match id.pos {
                BlockPos::Diag(i) => i,
                BlockPos::Upper(i) => n_blocks + i,
                BlockPos::Lower(i) => 2 * n_blocks - 1 + i,
            };
            slots.push(ElementSlot {
                block: block as u32,
                row: id.row as u16,
                col: id.col as u16,
            });
        });
        Self {
            n_blocks,
            block_size,
            slots,
        }
    }

    /// Elements listed.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether element `e` is its own mirror (a diagonal entry of a diagonal
    /// block).
    #[inline(always)]
    pub fn is_self_mirror(&self, e: usize) -> bool {
        let s = self.slots[e];
        (s.block as usize) < self.n_blocks && s.row == s.col
    }

    /// [`Self::is_self_mirror`] of every element of `range`.
    pub fn self_mirror(&self, range: Range<usize>) -> Vec<bool> {
        range.map(|e| self.is_self_mirror(e)).collect()
    }

    /// Block and offset in its column-major data of `side` of `s`.
    #[inline(always)]
    fn locate(&self, s: ElementSlot, side: Side) -> (usize, usize) {
        let (block, row, col) = (s.block as usize, s.row as usize, s.col as usize);
        match side {
            Side::Canonical => (block, col * self.block_size + row),
            Side::Mirror if block < self.n_blocks => (block, row * self.block_size + col),
            Side::Mirror => (block + self.n_blocks - 1, row * self.block_size + col),
        }
    }

    /// `f(e, value)` for `side` of every element of `range` in `bt`, `e`
    /// counted from the start of the range. A block's storage is looked up
    /// once per run of elements in it.
    #[inline]
    pub fn read(
        &self,
        range: Range<usize>,
        side: Side,
        bt: &BlockTridiagonal,
        mut f: impl FnMut(usize, c64),
    ) {
        let mut blocks = BlockReader::new(bt);
        for (e, &s) in self.slots[range].iter().enumerate() {
            f(e, blocks.get(self.locate(s, side)));
        }
    }

    /// Write `value(e)` at `side` of every element `e` of `range` (counted
    /// from its start) for which it is `Some`, block run by block run.
    #[inline]
    pub fn write(
        &self,
        range: Range<usize>,
        side: Side,
        bt: &mut BlockTridiagonal,
        mut value: impl FnMut(usize) -> Option<c64>,
    ) {
        let (mut e, bs) = (0, self.block_size);
        for run in self.slots[range].chunk_by(|a, b| a.block == b.block) {
            let block = self.locate(run[0], side).0;
            let data = bt.stored_block_mut(block).as_mut_slice();
            let offset = |s: &ElementSlot| match side {
                Side::Canonical => s.col as usize * bs + s.row as usize,
                Side::Mirror => s.row as usize * bs + s.col as usize,
            };
            for s in run {
                if let Some(v) = value(e) {
                    data[offset(s)] = v;
                }
                e += 1;
            }
        }
    }
}

/// Reads entries of one matrix, looking a block's storage up again only
/// when the block changes.
struct BlockReader<'a> {
    bt: &'a BlockTridiagonal,
    block: usize,
    data: &'a [c64],
}

impl<'a> BlockReader<'a> {
    fn new(bt: &'a BlockTridiagonal) -> Self {
        Self {
            bt,
            block: usize::MAX,
            data: &[],
        }
    }

    #[inline(always)]
    fn get(&mut self, (block, offset): (usize, usize)) -> c64 {
        if self.block != block {
            (self.block, self.data) = (block, self.bt.stored_block(block).as_slice());
        }
        self.data[offset]
    }
}

/// The lane groups of a run of elements of which `self_mirror` says which
/// are their own mirror: live and paired lanes, and the factor a lane's real
/// part takes in its mirror, `−1` for a paired element (`X_ji = −X*_ij`) and
/// `+1` for a self-mirror or padding lane.
pub fn lane_groups(self_mirror: &[bool]) -> Vec<GroupInfo> {
    self_mirror
        .chunks(LANES)
        .map(|lanes| GroupInfo {
            live: lanes.len(),
            paired: lanes.iter().filter(|&&s| !s).count(),
            sign: std::array::from_fn(|l| match lanes.get(l) {
                Some(false) => -1.0,
                _ => 1.0,
            }),
        })
        .collect()
}

/// What the kernels need to know about a lane group besides its data.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GroupInfo {
    /// Lanes holding an element (the rest pad the tail group).
    pub live: usize,
    /// Live lanes whose element is not its own mirror.
    pub paired: usize,
    /// Per lane, `−1` for a paired element and `+1` otherwise: the NEGF
    /// mirror of a lane is `(sign·re, im)`.
    pub sign: Row,
}

/// Copy energy `k` of both sides of the elements `range` of `slots` from
/// `bt` into the rows of `planes` (`[canonical, mirror]`; element `e` of
/// the range into lane `e mod LANES` of group `e / LANES`), a lane row of
/// each at a time.
pub(crate) fn gather_energy(
    [canonical, mirror]: [&mut LanePlanes; 2],
    k: usize,
    bt: &BlockTridiagonal,
    slots: &ElementSlots,
    range: Range<usize>,
) {
    let (mut ij, mut ji) = (BlockReader::new(bt), BlockReader::new(bt));
    for (g, group) in slots.slots[range].chunks(LANES).enumerate() {
        let ((c_re, c_im), (m_re, m_im)) = (canonical.row_mut(g, k), mirror.row_mut(g, k));
        for (l, &s) in group.iter().enumerate() {
            let (c, m) = (
                ij.get(slots.locate(s, Side::Canonical)),
                ji.get(slots.locate(s, Side::Mirror)),
            );
            (c_re[l], c_im[l], m_re[l], m_im[l]) = (c.re, c.im, m.re, m.im);
        }
    }
}

/// The inverse of [`gather_energy`]: write energy `k` of the elements of
/// `planes` into `side` of the elements `range` of `slots` in `bt` —
/// skipping the self-mirror ones on the mirror side, where they would
/// overwrite their own canonical value.
pub(crate) fn scatter_energy(
    planes: &LanePlanes,
    k: usize,
    bt: &mut BlockTridiagonal,
    slots: &ElementSlots,
    range: Range<usize>,
    side: Side,
) {
    let start = range.start;
    slots.write(range, side, bt, |e| {
        let skip = side == Side::Mirror && slots.is_self_mirror(start + e);
        let (re, im) = planes.row(e / LANES, k);
        (!skip).then(|| c64::new(re[e % LANES], im[e % LANES]))
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::convolution::canonical_elements;
    use quatrex_linalg::cplx;

    #[test]
    fn slots_address_the_elements_they_name() {
        for (nb, bs) in [(3, 2), (1, 3)] {
            let mut bt = BlockTridiagonal::zeros(nb, bs);
            let elements = canonical_elements(nb, bs);
            let slots = ElementSlots::canonical(nb, bs);
            let all = 0..slots.len();
            slots.write(all.clone(), Side::Canonical, &mut bt, |e| {
                Some(cplx(e as f64, 1.0))
            });
            slots.write(all.clone(), Side::Mirror, &mut bt, |e| {
                (!slots.is_self_mirror(e)).then(|| cplx(-(e as f64), 2.0))
            });
            for (e, id) in elements.iter().enumerate() {
                assert_eq!(slots.is_self_mirror(e), id.is_self_mirror());
                assert_eq!(id.value_in(&bt), cplx(e as f64, 1.0), "{id:?}");
                if !id.is_self_mirror() {
                    assert_eq!(id.mirror().value_in(&bt), cplx(-(e as f64), 2.0));
                }
            }
            let mut read = Vec::new();
            slots.read(all, Side::Mirror, &bt, |_, v| read.push(v));
            let want: Vec<c64> = elements
                .iter()
                .map(|id| id.mirror().value_in(&bt))
                .collect();
            assert_eq!(read, want);
        }
    }

    #[test]
    fn gather_and_scatter_round_trip_through_padded_groups() {
        let (nb, bs, ne) = (2, 3, 5);
        let elements = canonical_elements(nb, bs);
        assert_ne!(elements.len() % LANES, 0, "the tail group must be ragged");
        let slots = ElementSlots::canonical(nb, bs);
        let all = 0..slots.len();
        let x: Vec<BlockTridiagonal> = (0..ne)
            .map(|k| {
                let mut bt = BlockTridiagonal::zeros(nb, bs);
                slots.write(all.clone(), Side::Canonical, &mut bt, |e| {
                    Some(cplx(k as f64, e as f64))
                });
                bt
            })
            .collect();
        let mut planes = LanePlanes::zeroed(elements.len(), ne);
        let mut mirrors = LanePlanes::zeroed(elements.len(), ne);
        for (k, bt) in x.iter().enumerate() {
            gather_energy([&mut planes, &mut mirrors], k, bt, &slots, all.clone());
        }
        for e in 0..elements.len() {
            assert_eq!(planes.series(e)[3], cplx(3.0, e as f64));
        }
        // The padding lanes stay zero.
        let tail = planes.group(n_groups(planes.n_elements()) - 1);
        assert!(tail
            .re
            .iter()
            .all(|r| r[elements.len() % LANES..].iter().all(|&v| v == 0.0)));
        let mut back = vec![BlockTridiagonal::zeros(nb, bs); ne];
        for (k, bt) in back.iter_mut().enumerate() {
            scatter_energy(&planes, k, bt, &slots, all.clone(), Side::Canonical);
        }
        for (a, b) in back.iter().zip(&x) {
            assert!(a.to_dense().approx_eq(&b.to_dense(), 0.0));
        }
    }
}
