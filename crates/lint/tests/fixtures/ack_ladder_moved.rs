//! Fixture: the follower's append was renamed in place. Its steps are
//! still here, in ladder order, but the `ack-ladder` configured for
//! `replica_append` now names a fn that does not exist, so the rule must
//! report the stale site instead of silently checking nothing.

fn append_batch(d: &mut Wal, entries: &[Record]) -> Result<u64, WalError> {
    for r in entries {
        d.log_encoded(r)?;
    }
    d.commit()?;
    for r in entries {
        apply_record(d, r)?;
    }
    Ok(d.next_lsn())
}
