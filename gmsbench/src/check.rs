//! The output check run after every alloc launch, outside the timed
//! section: no granted block may overlap another live block or end past
//! the heap.

use std::fmt;

use gpumem_core::DevicePtr;

/// A block handed out in violation of the allocator contract.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Violation {
    /// Two live blocks share bytes: `[a.0, a.1)` and `[b.0, b.1)`.
    Overlap { manager: &'static str, a: (u64, u64), b: (u64, u64) },
    /// A block `[start, end)` runs past the end of the heap.
    OutOfBounds { manager: &'static str, start: u64, end: u64, heap_len: u64 },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::Overlap { manager, a, b } => {
                write!(f, "{manager}: block [{}, {}) overlaps block [{}, {})", a.0, a.1, b.0, b.1)
            }
            Violation::OutOfBounds { manager, start, end, heap_len } => {
                write!(f, "{manager}: block [{start}, {end}) ends past the heap ({heap_len} bytes)")
            }
        }
    }
}

/// What one alloc launch granted.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Grants {
    /// Requests that got a block.
    pub granted: u64,
    /// Requests that got the null pointer.
    pub nulls: u64,
    /// Address range the launch's blocks span ÷ bytes they requested
    /// (Fig. 11a); 0 when nothing was granted.
    pub expansion: f64,
}

/// Adds one alloc launch's grants (`ptrs[i]` for a request of `sizes[i]`
/// bytes) to `live`, the blocks the manager has handed out and not yet
/// taken back, and checks the whole set.
pub fn add_launch(
    manager: &'static str,
    heap_len: u64,
    live: &mut Vec<(u64, u64)>,
    ptrs: &[DevicePtr],
    sizes: &[u64],
) -> Result<Grants, Violation> {
    let mut grants = Grants::default();
    let (mut lo, mut hi, mut bytes) = (u64::MAX, 0, 0);
    for (&ptr, &size) in ptrs.iter().zip(sizes) {
        if ptr.is_null() {
            grants.nulls += 1;
            continue;
        }
        let start = ptr.offset();
        let end = start.checked_add(size).filter(|&end| end <= heap_len).ok_or(
            Violation::OutOfBounds { manager, start, end: start.saturating_add(size), heap_len },
        )?;
        live.push((start, end));
        grants.granted += 1;
        (lo, hi, bytes) = (lo.min(start), hi.max(end), bytes + size);
    }
    if bytes > 0 {
        grants.expansion = (hi - lo) as f64 / bytes as f64;
    }
    // The stable sort finds the already-sorted earlier blocks as one run and
    // merges the new ones into it.
    live.sort();
    if let Some(w) = live.windows(2).find(|w| w[1].0 < w[0].1) {
        return Err(Violation::Overlap { manager, a: w[0], b: w[1] });
    }
    Ok(grants)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(offset: u64) -> DevicePtr {
        DevicePtr::new(offset)
    }

    #[test]
    fn disjoint_blocks_pass_and_report_expansion() {
        let mut live = Vec::new();
        let g = add_launch("m", 1024, &mut live, &[p(0), DevicePtr::NULL, p(64)], &[16, 16, 16])
            .expect("disjoint");
        assert_eq!((g.granted, g.nulls), (2, 1));
        assert_eq!(g.expansion, 80.0 / 32.0);
        add_launch("m", 1024, &mut live, &[p(16)], &[48]).expect("fills the gap exactly");
    }

    #[test]
    fn overlap_with_an_earlier_launch_fails() {
        let mut live = Vec::new();
        add_launch("m", 1024, &mut live, &[p(0)], &[64]).expect("first block");
        let err = add_launch("m", 1024, &mut live, &[p(32)], &[16]).unwrap_err();
        assert_eq!(err, Violation::Overlap { manager: "m", a: (0, 64), b: (32, 48) });
    }

    #[test]
    fn block_past_the_heap_fails() {
        let err = add_launch("m", 128, &mut Vec::new(), &[p(120)], &[16]).unwrap_err();
        assert!(matches!(err, Violation::OutOfBounds { end: 136, .. }), "{err}");
    }
}
