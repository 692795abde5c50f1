//! Fixture: panic-free entries, a pragma-acknowledged entry, and a
//! private panicking fn (not an entry) — all quiet.

pub struct SafeRouter {
    hops: Vec<u32>,
}

impl SafeRouter {
    pub fn route(&self, target: u32) -> Option<u32> {
        self.hops.first().map(|h| h + target)
    }

    // tao-lint: allow(panic-reachability, reason = "hops is non-empty after join; an empty router is a construction bug")
    pub fn route_unchecked(&self, target: u32) -> u32 {
        self.choose(target)
    }

    fn choose(&self, target: u32) -> u32 {
        #[expect(clippy::expect_used, reason = "hops is non-empty after join")]
        let first = *self.hops.first().expect("joined");
        first + target
    }
}
