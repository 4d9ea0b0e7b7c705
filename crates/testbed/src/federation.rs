//! The federation layer: authorities peer by exchanging node descriptions
//! and user credentials — a miniature of the Slice-based Federation
//! Architecture (SFA) the paper cites as PlanetLab's federation substrate.

use crate::authority::Authority;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use fedval_core::Facility;

/// A federation of top-level authorities.
#[derive(Debug, Clone)]
pub struct Federation {
    authorities: Vec<Authority>,
}

/// One entry of the federated node registry (the "node descriptions"
/// exchanged between PLC and PLE).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeRecord {
    /// Index of the owning authority within the federation.
    pub authority: u32,
    /// Site name the node belongs to.
    pub site: String,
    /// Location of the node.
    pub location: u32,
    /// Sliver capacity of the node.
    pub sliver_capacity: u64,
}

/// A user credential vouched for by an authority — the "direct exchange of
/// user credentials" that makes cross-authority slice creation possible.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Credential {
    /// Issuing authority index.
    pub authority: u32,
    /// User id within the authority.
    pub user: u64,
    /// Integrity tag over the payload (toy checksum — stands in for the
    /// signature chain of SFA).
    pub tag: u64,
}

impl Credential {
    /// Issues a credential for `(authority, user)`.
    pub fn issue(authority: u32, user: u64) -> Credential {
        Credential {
            authority,
            user,
            tag: Self::compute_tag(authority, user),
        }
    }

    /// Validates the integrity tag.
    pub fn verify(&self) -> bool {
        self.tag == Self::compute_tag(self.authority, self.user)
    }

    fn compute_tag(authority: u32, user: u64) -> u64 {
        // FNV-1a over the fields; deterministic and dependency-free.
        let mut h: u64 = 0xcbf29ce484222325;
        for b in authority
            .to_le_bytes()
            .into_iter()
            .chain(user.to_le_bytes())
        {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
        h
    }
}

impl Federation {
    /// Forms a federation.
    ///
    /// # Panics
    /// Panics if empty or larger than 64 authorities.
    pub fn new(authorities: Vec<Authority>) -> Federation {
        assert!(!authorities.is_empty());
        assert!(authorities.len() <= 64);
        Federation { authorities }
    }

    /// The member authorities, in player order.
    pub fn authorities(&self) -> &[Authority] {
        &self.authorities
    }

    /// Number of member authorities.
    pub fn len(&self) -> usize {
        self.authorities.len()
    }

    /// Whether the federation has no members (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.authorities.is_empty()
    }

    /// Economic-model view: one [`Facility`] per authority.
    pub fn facilities(&self) -> Vec<Facility> {
        self.authorities.iter().map(|a| a.as_facility()).collect()
    }

    /// The full federated node registry.
    pub fn registry(&self) -> Vec<NodeRecord> {
        let mut out = Vec::new();
        for (ai, a) in self.authorities.iter().enumerate() {
            for site in &a.sites {
                for node in &site.nodes {
                    #[expect(
                        clippy::cast_possible_truncation,
                        reason = "authority count is config-bounded far below u32::MAX"
                    )]
                    out.push(NodeRecord {
                        authority: ai as u32,
                        site: site.name.clone(),
                        location: site.location,
                        sliver_capacity: node.sliver_capacity,
                    });
                }
            }
        }
        out
    }

    /// Serializes the registry into the wire format authorities exchange.
    pub fn encode_registry(&self) -> Bytes {
        let records = self.registry();
        let mut buf = BytesMut::with_capacity(records.len() * 32);
        #[expect(
            clippy::cast_possible_truncation,
            reason = "the wire format caps the registry at u32::MAX records; emulated federations hold a few hundred"
        )]
        buf.put_u32(records.len() as u32);
        for r in &records {
            buf.put_u32(r.authority);
            let site = r.site.as_bytes();
            #[expect(
                clippy::cast_possible_truncation,
                reason = "site names come from config and are far shorter than the u16 length prefix allows"
            )]
            buf.put_u16(site.len() as u16);
            buf.put_slice(site);
            buf.put_u32(r.location);
            buf.put_u64(r.sliver_capacity);
        }
        buf.freeze()
    }

    /// Parses a registry received from a peer authority.
    ///
    /// Returns `None` on any truncation or malformed field — a peer's data
    /// is untrusted input.
    pub fn decode_registry(mut data: Bytes) -> Option<Vec<NodeRecord>> {
        if data.remaining() < 4 {
            return None;
        }
        let count = data.get_u32() as usize;
        let mut out = Vec::with_capacity(count.min(1 << 16));
        for _ in 0..count {
            if data.remaining() < 4 + 2 {
                return None;
            }
            let authority = data.get_u32();
            let site_len = data.get_u16() as usize;
            if data.remaining() < site_len + 4 + 8 {
                return None;
            }
            let site_bytes = data.copy_to_bytes(site_len);
            let site = String::from_utf8(site_bytes.to_vec()).ok()?;
            let location = data.get_u32();
            let sliver_capacity = data.get_u64();
            out.push(NodeRecord {
                authority,
                site,
                location,
                sliver_capacity,
            });
        }
        if data.has_remaining() {
            return None; // trailing garbage
        }
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::authority::synthetic_authority;

    fn toy_federation() -> Federation {
        Federation::new(vec![
            synthetic_authority("PLC", 0, 3, 2, 4, 100),
            synthetic_authority("PLE", 3, 2, 2, 4, 80),
        ])
    }

    #[test]
    fn registry_lists_every_node() {
        let f = toy_federation();
        let reg = f.registry();
        assert_eq!(reg.len(), (3 + 2) * 2);
        assert!(reg.iter().any(|r| r.authority == 1 && r.location == 4));
    }

    #[test]
    fn registry_round_trips_through_wire_format() {
        let f = toy_federation();
        let bytes = f.encode_registry();
        let decoded = Federation::decode_registry(bytes).unwrap();
        assert_eq!(decoded, f.registry());
    }

    #[test]
    fn decode_rejects_truncation_and_garbage() {
        let f = toy_federation();
        let bytes = f.encode_registry();
        // Truncated at every prefix length must fail (or equal full parse).
        let truncated = bytes.slice(0..bytes.len() - 3);
        assert!(Federation::decode_registry(truncated).is_none());
        // Trailing garbage must fail.
        let mut with_garbage = BytesMut::from(&bytes[..]);
        with_garbage.put_u8(0xFF);
        assert!(Federation::decode_registry(with_garbage.freeze()).is_none());
        // Empty input must fail.
        assert!(Federation::decode_registry(Bytes::new()).is_none());
    }

    #[test]
    fn credentials_verify_and_detect_tampering() {
        let c = Credential::issue(1, 42);
        assert!(c.verify());
        let mut forged = c.clone();
        forged.user = 43;
        assert!(!forged.verify());
    }

    #[test]
    fn facilities_projection() {
        let f = toy_federation();
        let facs = f.facilities();
        assert_eq!(facs.len(), 2);
        assert_eq!(facs[0].n_locations(), 3);
        assert_eq!(facs[1].total_slots(), 2 * 2 * 4);
    }
}
