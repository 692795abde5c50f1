//! Fixture: a `// tao-lint: hot` marker and a waiver bind to the fn below
//! them whatever outer attributes or doc comments sit between, in either
//! order; a marker above anything but a fn marks nothing.

/// A buffer whose hot entries (incorrectly) grow it.
pub struct Buf {
    v: Vec<u64>,
}

impl Buf {
    /// Attribute first, then the marker and the waiver.
    #[inline]
    // tao-lint: hot
    // tao-lint: allow(panic-reachability, reason = "fixture: the buffer is never empty here")
    pub fn attr_first(&mut self, x: u64) -> u64 {
        self.v.push(x);
        self.v[0]
    }

    // tao-lint: hot
    // tao-lint: allow(panic-reachability, reason = "fixture: the buffer is never empty here")
    /// The marker and the waiver first, then a doc comment and attributes.
    #[inline]
    #[must_use]
    pub fn marker_first(&mut self, x: u64) -> u64 {
        self.v.push(x);
        self.v[0]
    }
}

// tao-lint: hot
/// Not a fn: the marker above marks nothing.
pub const NOT_A_FN: u64 = 0;
