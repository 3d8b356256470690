//! The peak-RSS watermark reset, in a test binary of its own.
//!
//! `VmHWM` is process-wide: any test running in parallel in the same
//! process can raise it between the two readings below. Alone in its
//! process, this test is the only thing allocating.

use schevo_obs::procinfo::{peak_rss_bytes, reset_peak_rss};

#[test]
fn reset_shrinks_or_keeps_the_watermark() {
    if !std::path::Path::new("/proc/self/status").exists() {
        return;
    }
    // Push the watermark up, then reset: the new reading must not exceed
    // the old one (it tracks only post-reset usage). A zeroed allocation
    // maps pages without touching them, so write to every page to make
    // them resident.
    let mut ballast = vec![0u8; 8 << 20];
    for page in ballast.chunks_mut(4096) {
        page[0] = 1;
    }
    std::hint::black_box(&ballast);
    let before = peak_rss_bytes().expect("VmHWM readable");
    assert!(before >= 8 << 20, "the ballast is not resident: {before}");
    drop(ballast);
    if reset_peak_rss() {
        let after = peak_rss_bytes().expect("VmHWM readable after reset");
        assert!(after <= before, "reset raised the watermark: {before} -> {after}");
    }
}
