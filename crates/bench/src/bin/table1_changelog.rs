//! Table 1: a sample ChangeLog record.
//!
//! Reproduces the paper's example sequence — a file creation, a
//! directory creation, and an unlink — and prints the resulting records
//! in `lfs changelog` text format, which is exactly the format of
//! Table 1.

use lustre_sim::{LustreConfig, LustreError, LustreFs};
use sdci_types::{MdtIndex, SimDuration, SimTime};

fn main() -> Result<(), LustreError> {
    println!("== Table 1: A Sample ChangeLog Record ==\n");
    let mut lfs = LustreFs::new(LustreConfig::aws_testbed());

    // Match the paper's timestamps: 2017.09.06, 20:15:37.xxxx.
    let base = SimTime::EPOCH + SimDuration::from_secs(20 * 3600 + 15 * 60 + 37);
    lfs.create("/data1.txt", base + SimDuration::from_nanos(113_800_000))?;
    lfs.mkdir("/DataDir", base + SimDuration::from_nanos(509_700_000))?;
    lfs.unlink("/data1.txt", base + SimDuration::from_nanos(886_900_000))?;

    println!("Event ID  Type     Timestamp      Datestamp   Flags  Target FID / Parent FID / Target Name");
    for record in lfs.changelog(MdtIndex::new(0)).read_from(0, 16) {
        println!("{}", record.to_lfs_line());
    }

    println!("\npaper row (for comparison):");
    println!(
        "13106 01CREAT 20:15:37.1138 2017.09.06 0x0 \
         t=[0x200000402:0xa046:0x0] p=[0x200000007:0x1:0x0] data1.txt"
    );
    println!(
        "\nNote: record numbers and FID sequences differ (they are allocator \
         state), while the format — zero-padded type code + mnemonic, \
         timestamp, datestamp, flags (0x1 on the final unlink), target and \
         parent FIDs, name — matches the paper."
    );
    Ok(())
}
