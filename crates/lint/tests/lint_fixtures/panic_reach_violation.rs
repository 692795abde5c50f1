//! Fixture: a pub entry point in an entry crate (`tao-overlay`) that
//! transitively reaches a leaf panic. The leaf's own clippy expectation
//! discharges `clippy::expect_used` but NOT the entry-point obligation.

pub struct Router {
    hops: Vec<u32>,
}

impl Router {
    pub fn route(&self, target: u32) -> u32 {
        self.pick(target)
    }

    fn pick(&self, target: u32) -> u32 {
        #[expect(clippy::expect_used, reason = "hops is non-empty after join")]
        let first = *self.hops.first().expect("joined");
        first + target
    }
}
