//! The partition map: which node serves which slice of the user space.
//!
//! Users are partitioned by [`crate::route::partition_of`], a static
//! function of the user id and the partition count, so there is no
//! map-distribution protocol to get wrong; the router and the simulator
//! both place users through it. Campaign state is *not* partitioned:
//! every control-plane mutation (submit/pause/impression/maintain) is
//! broadcast to all partitions in one serialized order, so each node
//! holds the full ad store and recommendations depend only on the node's
//! own users.

/// One partition's serving pair.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionNodes {
    /// Address of the current primary.
    pub primary: String,
    /// Address of the follower (promotion target), when one exists.
    pub follower: Option<String>,
}

/// The full cluster layout the router serves.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionMap {
    partitions: Vec<PartitionNodes>,
}

impl PartitionMap {
    /// Build a map from per-partition serving pairs, partition order.
    ///
    /// # Errors
    ///
    /// When `partitions` is empty or has more than `u16::MAX` entries
    /// (the wire header carries partition ids as `u16`).
    pub fn new(partitions: Vec<PartitionNodes>) -> Result<PartitionMap, String> {
        if partitions.is_empty() {
            return Err("partition map needs at least one partition".into());
        }
        if partitions.len() > usize::from(u16::MAX) {
            return Err(format!(
                "{} partitions exceed the u16 wire header",
                partitions.len()
            ));
        }
        Ok(PartitionMap { partitions })
    }

    /// Parse CLI partition specs, one per partition, each
    /// `primary_addr` or `primary_addr,follower_addr`.
    ///
    /// # Errors
    ///
    /// A description of the malformed spec.
    pub fn parse(specs: &[String]) -> Result<PartitionMap, String> {
        let mut partitions = Vec::with_capacity(specs.len());
        for spec in specs {
            let mut parts = spec.split(',').map(str::trim);
            let primary = parts
                .next()
                .filter(|a| !a.is_empty())
                .ok_or_else(|| format!("empty partition spec {spec:?}"))?;
            let follower = parts.next().filter(|a| !a.is_empty());
            if parts.next().is_some() {
                return Err(format!(
                    "partition spec {spec:?} has more than two addresses"
                ));
            }
            partitions.push(PartitionNodes {
                primary: primary.to_string(),
                follower: follower.map(str::to_string),
            });
        }
        PartitionMap::new(partitions)
    }

    /// Number of partitions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.partitions.len()
    }

    /// A map is never empty ([`PartitionMap::new`] refuses that).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The serving pair for `partition` (None when out of range).
    #[must_use]
    pub fn nodes(&self, partition: u16) -> Option<&PartitionNodes> {
        self.partitions.get(usize::from(partition))
    }

    /// Iterate `(partition, serving pair)` in partition order.
    pub fn iter(&self) -> impl Iterator<Item = (u16, &PartitionNodes)> {
        self.partitions
            .iter()
            .enumerate()
            .map(|(i, n)| (i as u16, n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_pairs_and_singletons() {
        let map = PartitionMap::parse(&[
            "127.0.0.1:7001,127.0.0.1:7101".to_string(),
            "127.0.0.1:7002".to_string(),
        ])
        .unwrap();
        assert_eq!(map.len(), 2);
        assert_eq!(
            map.nodes(0).unwrap().follower.as_deref(),
            Some("127.0.0.1:7101")
        );
        assert_eq!(map.nodes(1).unwrap().follower, None);
        assert!(map.nodes(2).is_none());
    }

    #[test]
    fn parse_rejects_junk() {
        assert!(PartitionMap::parse(&[]).is_err());
        assert!(PartitionMap::parse(&[String::new()]).is_err());
        assert!(PartitionMap::parse(&["a,b,c".to_string()]).is_err());
    }
}
