//! Consistent hashing: which device owns which machine (FSM).
//!
//! The router shards streams onto devices *by machine*, because a batch
//! runs one machine's table: co-locating a machine's streams is what makes
//! batches fill and its transition table stay residency-hot on one device.
//! Consistent hashing gives the placement two properties worth testing:
//!
//! * **Determinism** — placement is a pure function of `(machine id,
//!   device set, vnodes)`. No clock, no RNG state, no arrival order.
//! * **Minimal remapping** — removing a device moves only the machines it
//!   owned; adding a device moves machines only *onto* the new device,
//!   about `1/N` of them in expectation. Everything else stays put, which
//!   is what keeps residency caches warm across fleet changes.
//!
//! Hashing is [`splitmix64`] over `(device id, replica)` for the ring
//! points and over the machine id for lookups — fixed, seedless, and
//! portable, so placements are byte-stable across hosts and reruns. The
//! two families are domain-separated (the point input carries a high tag
//! bit): without it, machine `m < vnodes` hashes identically to device 0's
//! replica-`m` point and every small machine id lands on device 0.

/// The 64-bit finalizer of the splitmix64 generator: a fixed, well-mixed,
/// invertible hash. Public so tests and experiments can predict placement.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Most ring points per device: a point's replica index fills the low 16
/// bits of its hash input, so more would reuse the next device's inputs.
pub const MAX_VNODES: usize = 1 << 16;

/// A consistent-hash ring over device indices.
///
/// Each device contributes `vnodes` points at
/// `splitmix64(1 << 63 | device << 16 | replica)` (the tag bit keeps the
/// point inputs disjoint from machine-id inputs); a machine routes to the
/// device owning the first point at or after `splitmix64(machine)`,
/// wrapping at the top of the hash space.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HashRing {
    /// `(point, device)`, sorted by point. Ties are impossible in practice
    /// (distinct splitmix64 inputs) but break deterministically by device.
    points: Vec<(u64, usize)>,
    vnodes: usize,
    devices: Vec<usize>,
}

impl HashRing {
    /// Builds a ring over devices `0..n_devices`, each with `vnodes`
    /// points. Panics if either is zero or `vnodes` exceeds [`MAX_VNODES`].
    pub fn new(n_devices: usize, vnodes: usize) -> Self {
        Self::over((0..n_devices).collect(), vnodes)
    }

    fn over(devices: Vec<usize>, vnodes: usize) -> Self {
        assert!(!devices.is_empty(), "a ring needs at least one device");
        assert!(vnodes > 0, "a ring needs at least one point per device");
        assert!(vnodes <= MAX_VNODES, "at most {MAX_VNODES} points per device");
        let mut points: Vec<(u64, usize)> = devices
            .iter()
            .flat_map(|&d| {
                (0..vnodes).map(move |r| (splitmix64(1 << 63 | (d as u64) << 16 | r as u64), d))
            })
            .collect();
        points.sort_unstable();
        HashRing { points, vnodes, devices }
    }

    /// The device that owns `machine`.
    pub fn route(&self, machine: usize) -> usize {
        let h = splitmix64(machine as u64);
        let idx = match self.points.binary_search(&(h, 0)) {
            Ok(i) => i,
            Err(i) if i == self.points.len() => 0,
            Err(i) => i,
        };
        self.points[idx].1
    }

    /// The ring with `device` removed — how the router re-shards around a
    /// whole-device outage. Panics when removing the last device.
    pub fn without(&self, device: usize) -> HashRing {
        let remaining: Vec<usize> = self.devices.iter().copied().filter(|&d| d != device).collect();
        HashRing::over(remaining, self.vnodes)
    }

    /// The ring with `device` added (no-op if already present) — the other
    /// half of the minimal-remapping law.
    pub fn with_device(&self, device: usize) -> HashRing {
        let mut devices = self.devices.clone();
        if !devices.contains(&device) {
            devices.push(device);
            devices.sort_unstable();
        }
        HashRing::over(devices, self.vnodes)
    }

    /// Devices on the ring, ascending.
    pub fn devices(&self) -> &[usize] {
        &self.devices
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn routing_is_a_pure_function() {
        let ring = HashRing::new(4, 32);
        for m in 0..200 {
            assert_eq!(ring.route(m), ring.route(m));
            assert_eq!(ring.route(m), HashRing::new(4, 32).route(m));
            assert!(ring.devices().contains(&ring.route(m)));
        }
    }

    #[test]
    fn every_device_owns_some_machines() {
        let ring = HashRing::new(3, 64);
        let mut owned = [0usize; 3];
        for m in 0..3000 {
            owned[ring.route(m)] += 1;
        }
        for (d, n) in owned.iter().enumerate() {
            assert!(*n > 0, "device {d} owns nothing");
            // With 64 vnodes the split should be within a factor of ~3 of
            // fair share — loose, but catches a broken hash outright.
            assert!(*n > 3000 / 9, "device {d} owns only {n} of 3000");
        }
    }

    #[test]
    fn small_machine_ids_spread_across_devices() {
        // Regression pin: machine ids below `vnodes` must not all collide
        // onto device 0 (they would without hash domain separation, since
        // machine m and device 0's replica m share the raw input m).
        let ring = HashRing::new(3, 64);
        let routes: Vec<usize> = (0..16).map(|m| ring.route(m)).collect();
        assert!(routes.iter().any(|&d| d != routes[0]), "all of {routes:?} on one device");
    }

    #[test]
    fn removing_a_device_moves_only_its_machines() {
        let ring = HashRing::new(5, 32);
        let shrunk = ring.without(2);
        for m in 0..2000 {
            let before = ring.route(m);
            if before != 2 {
                assert_eq!(shrunk.route(m), before, "machine {m} moved needlessly");
            } else {
                assert_ne!(shrunk.route(m), 2);
            }
        }
    }

    #[test]
    fn adding_a_device_moves_machines_only_onto_it() {
        let small = HashRing::new(4, 32);
        let grown = small.with_device(4);
        let mut moved = 0;
        for m in 0..2000 {
            if grown.route(m) != small.route(m) {
                assert_eq!(grown.route(m), 4, "machine {m} moved to an old device");
                moved += 1;
            }
        }
        // Expect about 1/5 of machines on the new device; allow 2x slack.
        assert!(moved > 0 && moved < 2 * 2000 / 5, "moved {moved} of 2000");
    }

    #[test]
    fn remove_then_add_restores_the_original_ring() {
        let ring = HashRing::new(4, 16);
        assert_eq!(ring.without(1).with_device(1), ring);
    }
}
