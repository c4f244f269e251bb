use std::ops::Deref;

use mehpt_types::{PageSize, PhysAddr, Ppn, VirtAddr, Vpn};

use crate::process::Hpt;

/// What the hardware cuckoo walker needs from a hashed page table.
///
/// Implemented by [`Hpt`] and so by everything that dereferences to it:
/// the ECPT baseline ([`Ecpt`](crate::Ecpt)) and ME-HPT
/// (`mehpt_core::MeHpt`). The same [`EcptWalker`](crate::EcptWalker)
/// hardware model therefore times walks over both designs — which is
/// faithful to the paper: ME-HPT reuses the ECPT walker and hides its extra
/// L2P access behind the CWC probe (Section V-D).
pub trait HptView {
    /// The page sizes mapped somewhere in `va`'s 1GB region
    /// (bit 0 = 4KB, bit 1 = 2MB, bit 2 = 1GB), or `None` if untracked.
    fn pud_mask(&self, va: VirtAddr) -> Option<u8>;

    /// The page sizes mapped in `va`'s 2MB region (bits 0–1), or `None`.
    fn pmd_mask(&self, va: VirtAddr) -> Option<u8>;

    /// One hardware probe of the `ps` table for `vpn`: appends the
    /// physical addresses of its W way slots to `out` (nothing if no page
    /// of that size was ever mapped), honoring in-flight resize state, and
    /// returns the translation those slots hold. Each way is hashed once.
    fn probe(&self, ps: PageSize, vpn: Vpn, out: &mut Vec<PhysAddr>) -> Option<Ppn>;

    /// The physical addresses of the W way slots a walker probes for `vpn`
    /// in the `ps` table, honoring in-flight resize state.
    fn probe_addrs(&self, ps: PageSize, vpn: Vpn) -> Vec<PhysAddr> {
        let mut addrs = Vec::new();
        self.probe(ps, vpn, &mut addrs);
        addrs
    }

    /// Functional translation (ground truth).
    fn translate(&self, va: VirtAddr) -> Option<(Ppn, PageSize)>;
}

impl<T: Deref<Target = Hpt>> HptView for T {
    fn pud_mask(&self, va: VirtAddr) -> Option<u8> {
        (**self).pud_mask(va)
    }

    fn pmd_mask(&self, va: VirtAddr) -> Option<u8> {
        (**self).pmd_mask(va)
    }

    fn probe(&self, ps: PageSize, vpn: Vpn, out: &mut Vec<PhysAddr>) -> Option<Ppn> {
        HptView::probe(&**self, ps, vpn, out)
    }

    fn translate(&self, va: VirtAddr) -> Option<(Ppn, PageSize)> {
        (**self).translate(va)
    }
}
