//! The replication wire format (`gvdb-api`) and the WAL (`gvdb-storage`)
//! each carry a CRC-32; a shipped checkpoint is checked by one and written
//! by the other, so the two must agree on every input.

use gvdb_api::repl::crc32 as api_crc32;
use gvdb_storage::wal::crc32 as wal_crc32;

/// xorshift64*: a fixed-seed byte source, no dependency needed.
fn bytes(seed: u64, len: usize) -> Vec<u8> {
    let mut x = seed | 1;
    (0..len)
        .map(|_| {
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            (x.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 56) as u8
        })
        .collect()
}

#[test]
fn api_and_wal_crc32_agree() {
    assert_eq!(api_crc32(b"123456789"), 0xCBF4_3926);
    // Lengths around the table's byte step and around a full page.
    let page = gvdb_storage::PAGE_SIZE;
    let lens = (0..=64).chain([255, 256, 257, 4095, page - 1, page, page + 1, 3 * page]);
    for (seed, len) in lens.enumerate() {
        let data = bytes(seed as u64 + 1, len);
        assert_eq!(api_crc32(&data), wal_crc32(&data), "length {len}");
    }
}
