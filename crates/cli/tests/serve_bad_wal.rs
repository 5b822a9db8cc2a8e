//! A WAL holding a checksum-valid sale with an impossible value.
//!
//! The record frames and checksums correctly, so the tolerant scan keeps
//! it; the fold must reject it. `Durability::open` returns a typed error
//! naming the record, and `mbp-market serve --wal` refuses to boot rather
//! than count the sale.

use mbp_ml::ModelKind;
use mbp_wal::log::segment_path;
use mbp_wal::{encode_log, Durability, WalConfig, WalError, WalEvent};
use std::process::Command;

#[test]
fn a_sale_with_a_nan_price_fails_recovery_and_serve_refuses_to_boot() {
    let dir = std::env::temp_dir().join(format!("mbp-cli-bad-sale-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let kind = ModelKind::LinearRegression;
    let log = encode_log(&[
        WalEvent::Support { kind, ridge: 1e-6 },
        WalEvent::Sale {
            kind,
            ncp: 0.5,
            price: 2.0,
        },
        WalEvent::Sale {
            kind,
            ncp: 0.5,
            price: f64::NAN,
        },
    ]);
    std::fs::write(segment_path(&dir, 1), &log.bytes).unwrap();

    match Durability::open(&dir, WalConfig::default()) {
        Err(WalError::BadSale {
            record: 2,
            ncp,
            price,
        }) => {
            assert_eq!(ncp, 0.5);
            assert!(price.is_nan());
        }
        Err(e) => panic!("unexpected error: {e}"),
        Ok(_) => panic!("recovery accepted a NaN-priced sale"),
    }

    let out = Command::new(env!("CARGO_BIN_EXE_mbp-market"))
        .args(["serve", "--port", "0", "--wal"])
        .arg(&dir)
        .output()
        .expect("run mbp-market serve");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(
        stderr.contains("recovered sale record 2 is invalid"),
        "stderr: {stderr}"
    );
    assert!(
        !String::from_utf8_lossy(&out.stdout).contains("listening"),
        "the daemon must not bind"
    );
    std::fs::remove_dir_all(&dir).ok();
}
