//! Same swap as `ack_ladder_fail.rs`, with a reasoned allow pragma.

// adcast-lint: allow(ack-ladder) -- fixture: this replay path applies from an already-durable snapshot, so commit order is moot
fn replica_append(d: &mut Wal, entries: &[Record]) -> Result<u64, WalError> {
    for r in entries {
        d.log_encoded(r)?;
    }
    for r in entries {
        apply_record(d, r)?;
    }
    d.commit()?;
    Ok(d.next_lsn())
}
