//! The published soft-state objects.

use tao_landmark::{LandmarkNumber, LandmarkVector};
use tao_util::bytes::{ByteReader, ByteWriter};
use tao_overlay::keyed::PeerId;
use tao_overlay::{OverlayNodeId, Point};
use tao_util::time::{SimDuration, SimTime};
use tao_topology::NodeIdx;

/// Load and capacity statistics a node may publish alongside its proximity
/// information (§6: "a node periodically publishes these statistics along
/// with its proximity information").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadStats {
    /// Maximum forwarding capacity (requests/second, abstract units).
    pub capacity: f64,
    /// Current load in the same units.
    pub current_load: f64,
}

impl LoadStats {
    /// Load as a fraction of capacity (`0.0` = idle; may exceed `1.0` when
    /// overloaded).
    ///
    /// # Panics
    ///
    /// Panics if capacity is not positive.
    pub fn utilization(&self) -> f64 {
        assert!(self.capacity > 0.0, "capacity must be positive");
        self.current_load / self.capacity
    }
}

/// Everything the system knows about one node: the payload of its
/// soft-state objects.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeInfo {
    /// The node's overlay identity.
    pub node: OverlayNodeId,
    /// The underlay router it runs on.
    pub underlay: NodeIdx,
    /// Its full landmark vector (used for final candidate ranking).
    pub vector: LandmarkVector,
    /// Its landmark number (the DHT key of its soft-state).
    pub number: LandmarkNumber,
    /// Optional load statistics (§6).
    pub load: Option<LoadStats>,
}

/// What a node of an id-keyed overlay (Chord, Pastry) publishes: the
/// [`NodeInfo`] of a node whose identity is a position in the identifier
/// space. [`RingState`](crate::ring::RingState) and
/// [`PrefixState`](crate::prefix::PrefixState) place the same record
/// differently.
#[derive(Debug, Clone, PartialEq)]
pub struct PeerRecord {
    /// The publishing node's id.
    pub id: PeerId,
    /// The underlay router it runs on.
    pub underlay: NodeIdx,
    /// Its full landmark vector.
    pub vector: LandmarkVector,
    /// Its landmark number.
    pub number: LandmarkNumber,
}

/// One stored object: the paper's `<Z, n, p>` triple — node info `n`,
/// placed at position `p` within region `Z` — plus its expiry.
#[derive(Debug, Clone, PartialEq)]
pub struct SoftStateEntry {
    /// The published node information.
    pub info: NodeInfo,
    /// The position within the region where the object is stored.
    pub position: Point,
    /// Virtual time at which the entry lapses unless refreshed.
    pub expires_at: SimTime,
}

impl SoftStateEntry {
    /// `true` if the entry is still live at `now`.
    pub fn is_live(&self, now: SimTime) -> bool {
        now < self.expires_at
    }

    /// Refreshes the entry to expire `ttl` after `now`.
    pub fn refresh(&mut self, now: SimTime, ttl: SimDuration) {
        self.expires_at = now + ttl;
    }

    /// Serialises the entry to a compact big-endian wire format (used to
    /// account for soft-state message sizes).
    pub fn encode(&self) -> Vec<u8> {
        let mut b = ByteWriter::new();
        b.put_u32(self.info.node.0);
        b.put_u32(self.info.underlay.0);
        b.put_u128(self.info.number.value());
        b.put_u64(self.expires_at.as_micros());
        b.put_u16(self.info.vector.len() as u16);
        for r in self.info.vector.rtts() {
            b.put_u64(r.as_micros());
        }
        b.put_u16(self.position.dims() as u16);
        for &c in self.position.coords() {
            b.put_f64(c);
        }
        match self.info.load {
            Some(l) => {
                b.put_u8(1);
                b.put_f64(l.capacity);
                b.put_f64(l.current_load);
            }
            None => b.put_u8(0),
        }
        b.into_vec()
    }

    /// Decodes an entry produced by [`SoftStateEntry::encode`].
    ///
    /// Returns `None` on truncated or malformed input.
    pub fn decode(data: &[u8]) -> Option<Self> {
        let mut r = ByteReader::new(data);
        let node = OverlayNodeId(r.get_u32()?);
        let underlay = NodeIdx(r.get_u32()?);
        let number = LandmarkNumber::new(r.get_u128()?);
        let expires_at = SimTime::from_micros(r.get_u64()?);
        let vec_len = r.get_u16()? as usize;
        if vec_len == 0 {
            return None;
        }
        let mut rtts = Vec::with_capacity(vec_len);
        for _ in 0..vec_len {
            rtts.push(SimDuration::from_micros(r.get_u64()?));
        }
        let vector = LandmarkVector::new(rtts);
        let dims = r.get_u16()? as usize;
        let mut coords = Vec::with_capacity(dims);
        for _ in 0..dims {
            coords.push(r.get_f64()?);
        }
        let position = Point::new(coords)?;
        let load = match r.get_u8()? {
            0 => None,
            1 => Some(LoadStats {
                capacity: r.get_f64()?,
                current_load: r.get_f64()?,
            }),
            _ => return None,
        };
        Some(SoftStateEntry {
            info: NodeInfo {
                node,
                underlay,
                vector,
                number,
                load,
            },
            position,
            expires_at,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_entry(load: Option<LoadStats>) -> SoftStateEntry {
        SoftStateEntry {
            info: NodeInfo {
                node: OverlayNodeId(42),
                underlay: NodeIdx(7),
                vector: LandmarkVector::from_millis(&[10.0, 20.0, 30.0]),
                number: LandmarkNumber::new(0xDEADBEEF),
                load,
            },
            position: Point::new(vec![0.25, 0.75]).unwrap(),
            expires_at: SimTime::from_micros(5_000_000),
        }
    }

    #[test]
    fn liveness_follows_the_clock() {
        let mut e = sample_entry(None);
        assert!(e.is_live(SimTime::from_micros(4_999_999)));
        assert!(!e.is_live(SimTime::from_micros(5_000_000)));
        e.refresh(SimTime::from_micros(5_000_000), SimDuration::from_secs(1));
        assert!(e.is_live(SimTime::from_micros(5_500_000)));
    }

    #[test]
    fn encode_decode_round_trips_without_load() {
        let e = sample_entry(None);
        let decoded = SoftStateEntry::decode(&e.encode()).unwrap();
        assert_eq!(decoded, e);
    }

    #[test]
    fn encode_decode_round_trips_with_load() {
        let e = sample_entry(Some(LoadStats {
            capacity: 100.0,
            current_load: 73.5,
        }));
        let decoded = SoftStateEntry::decode(&e.encode()).unwrap();
        assert_eq!(decoded, e);
    }

    #[test]
    fn truncated_input_is_rejected_at_every_length() {
        // Cut the wire image at *every* prefix length: any mid-field or
        // mid-structure truncation must fail cleanly, never panic.
        let e = sample_entry(Some(LoadStats {
            capacity: 10.0,
            current_load: 2.0,
        }));
        let full = e.encode();
        for cut in 0..full.len() {
            assert!(
                SoftStateEntry::decode(&full[..cut]).is_none(),
                "decode must fail at {cut} bytes"
            );
        }
        assert!(SoftStateEntry::decode(&full).is_some());
    }

    #[test]
    fn wire_image_length_matches_the_field_layout() {
        // 4 node + 4 underlay + 16 number + 8 expiry + 2 vec_len +
        // 8*len rtts + 2 dims + 8*dims coords + 1 load tag [+ 16 load].
        let without = sample_entry(None).encode();
        assert_eq!(without.len(), 4 + 4 + 16 + 8 + 2 + 8 * 3 + 2 + 8 * 2 + 1);
        let with = sample_entry(Some(LoadStats {
            capacity: 1.0,
            current_load: 0.5,
        }))
        .encode();
        assert_eq!(with.len(), without.len() + 16);
    }

    #[test]
    fn random_entries_round_trip_through_the_codec() {
        use tao_util::check::for_all;
        use tao_util::rand::Rng;
        use tao_util::check_eq;

        for_all("entry_codec_round_trip", 128, |rng| {
            let vec_len = rng.gen_range(1usize..=8);
            let ms: Vec<f64> = (0..vec_len).map(|_| rng.gen_range(0.0..500.0)).collect();
            let dims = rng.gen_range(1usize..=4);
            let coords: Vec<f64> = (0..dims).map(|_| rng.gen_range(0.0..1.0)).collect();
            let load = if rng.gen_bool(0.5) {
                Some(LoadStats {
                    capacity: rng.gen_range(1.0..1000.0),
                    current_load: rng.gen_range(0.0..1500.0),
                })
            } else {
                None
            };
            let e = SoftStateEntry {
                info: NodeInfo {
                    node: OverlayNodeId(rng.gen()),
                    underlay: NodeIdx(rng.gen()),
                    vector: LandmarkVector::from_millis(&ms),
                    number: LandmarkNumber::new(rng.gen()),
                    load,
                },
                position: Point::new(coords).expect("in-range coords"),
                expires_at: SimTime::from_micros(rng.gen_range(0..u64::MAX / 2)),
            };
            let decoded = SoftStateEntry::decode(&e.encode()).expect("decodes");
            check_eq!(decoded, e);
        });
    }

    #[test]
    fn malformed_load_tag_is_rejected() {
        let e = sample_entry(None);
        let mut wire = e.encode();
        *wire.last_mut().unwrap() = 7; // neither 0 nor 1
        assert!(SoftStateEntry::decode(&wire).is_none());
    }

    #[test]
    fn utilization_divides_load_by_capacity() {
        let l = LoadStats {
            capacity: 200.0,
            current_load: 50.0,
        };
        assert!((l.utilization() - 0.25).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn utilization_rejects_zero_capacity() {
        LoadStats {
            capacity: 0.0,
            current_load: 1.0,
        }
        .utilization();
    }
}
