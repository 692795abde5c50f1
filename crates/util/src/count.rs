//! Static-name event counters: one fixed `u64` array per counting layer.
//!
//! A [`Counters`] block is owned by the layer object whose events it
//! counts (a store, an overlay, a simulator), not by a global, so two
//! objects never share a tally and a `par_map` cell that builds its own
//! object counts exactly what that cell did, whatever the worker count.
//! The names are `'static` and the values a fixed array: nothing is
//! allocated after construction, so counting is free to sit on a
//! `// tao-lint: hot` path, and a block is plain data that may enter a
//! fingerprint.
//!
//! [`counters!`](crate::counters) declares a block's names and the
//! constants that index them:
//!
//! ```
//! use tao_util::count::Counters;
//!
//! tao_util::counters! { NAMES: READS = "reads", WRITES = "writes" }
//! let mut counts = Counters::new(&NAMES);
//! counts.add(WRITES, 3);
//! counts.add(READS, 1);
//! assert_eq!(counts.get("writes"), Some(3));
//! assert_eq!(counts.iter().collect::<Vec<_>>(), [("reads", 1), ("writes", 3)]);
//! ```

/// `N` event counters under static names; a counter is named by its index
/// into the names the block was built with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Counters<const N: usize> {
    names: &'static [&'static str; N],
    values: [u64; N],
}

impl<const N: usize> Counters<N> {
    /// A block of zeroed counters named `names`.
    pub const fn new(names: &'static [&'static str; N]) -> Self {
        Counters {
            names,
            values: [0; N],
        }
    }

    /// Adds `n` to counter `at`, saturating; an index past the block
    /// counts nothing.
    pub fn add(&mut self, at: usize, n: u64) {
        if let Some(value) = self.values.get_mut(at) {
            *value = value.saturating_add(n);
        }
    }

    /// The value of the counter called `name`, if the block has one.
    pub fn get(&self, name: &str) -> Option<u64> {
        let at = self.names.iter().position(|&n| n == name)?;
        self.values.get(at).copied()
    }

    /// Every `(name, value)`, in the order the names were given.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.names.iter().copied().zip(self.values)
    }
}

/// Declares a counter block's names, `$names: [&str; N]`, and one `usize`
/// constant per counter indexing them, in the order given; every item
/// gets the visibility written before `$names`.
#[macro_export]
macro_rules! counters {
    ($vis:vis $names:ident: $($id:ident = $name:literal),+ $(,)?) => {
        $vis const $names: [&str; [$($name),+].len()] = [$($name),+];
        $crate::counters!(@index [$vis] 0usize; $($id)+);
    };
    (@index [$vis:vis] $at:expr; $id:ident $($rest:ident)*) => {
        $vis const $id: usize = $at;
        $crate::counters!(@index [$vis] $at + 1; $($rest)*);
    };
    (@index [$vis:vis] $at:expr;) => {};
}

#[cfg(test)]
mod tests {
    use super::*;

    crate::counters! { NAMES: A = "a", B = "b", C = "c" }

    #[test]
    fn counts_by_index_and_reads_by_name() {
        let mut counts = Counters::new(&NAMES);
        assert_eq!((A, B, C), (0, 1, 2));
        counts.add(C, 5);
        counts.add(C, 1);
        counts.add(A, u64::MAX);
        counts.add(A, 1);
        counts.add(3, 9); // past the block: ignored
        assert_eq!(counts.get("a"), Some(u64::MAX), "saturates");
        assert_eq!(counts.get("b"), Some(0));
        assert_eq!(counts.get("c"), Some(6));
        assert_eq!(counts.get("d"), None);
        let all: Vec<_> = counts.iter().collect();
        assert_eq!(all, [("a", u64::MAX), ("b", 0), ("c", 6)]);
    }
}
