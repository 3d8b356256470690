//! Process self-inspection: the peak-RSS gauge behind the scale-tier
//! memory ceiling.
//!
//! Linux exposes the high-water mark of the resident set as `VmHWM` in
//! `/proc/self/status` (kibibytes). The CLI samples it once, after the
//! study finishes, into the `process.peak_rss_bytes` gauge — which is
//! what `scripts/ci.sh` asserts stays under the streaming ceiling at
//! 20× scale. On platforms without procfs the sample is simply absent;
//! nothing downstream requires it.

/// Peak resident set size of this process in bytes, or `None` when the
/// platform does not expose `/proc/self/status` (or the field is
/// missing / malformed).
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    parse_vm_hwm(&status)
}

/// Reset the peak-RSS watermark so a later [`peak_rss_bytes`] reads the
/// high-water mark *since this call* rather than since process start.
///
/// Writes `5` to `/proc/self/clear_refs` (Linux ≥ 4.0; needs write
/// permission on the file, which a process always has on itself unless
/// hardened out). Returns `false` when the reset is unavailable — the
/// caller should then label its measurement as cumulative.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", b"5").is_ok()
}

/// Extract `VmHWM` (reported in kB) from a `/proc/<pid>/status` body.
fn parse_vm_hwm(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: u64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kib * 1024)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_vm_hwm_line() {
        let status = "Name:\tschevo\nVmPeak:\t  999 kB\nVmHWM:\t  5120 kB\nThreads:\t4\n";
        assert_eq!(parse_vm_hwm(status), Some(5120 * 1024));
    }

    #[test]
    fn missing_or_malformed_field_is_none() {
        assert_eq!(parse_vm_hwm("Name:\tschevo\n"), None);
        assert_eq!(parse_vm_hwm("VmHWM:\tnot-a-number kB\n"), None);
    }

    #[test]
    fn live_sample_is_positive_on_linux() {
        if std::path::Path::new("/proc/self/status").exists() {
            let rss = peak_rss_bytes().expect("procfs present but VmHWM missing");
            assert!(rss > 0);
        }
    }
}
