"""SOSDevice: the complete host-device co-design of Figure 2.

Composes every piece of the system:

* PLC chip physically partitioned into SYS (pseudo-QLC, strong ECC,
  wear-leveled) and SPARE (native PLC, weak/no ECC, no wear leveling);
* a capacity-variant file system over a hint-carrying block layer;
* a trained ML file classifier and its periodic daemon;
* degradation forecasting, preemptive scrubbing, cloud-backed repair;
* the auto-delete trim fallback.

The facade is what the examples and the end-to-end experiment (E11)
drive: create files, let time pass, run the daemon, and observe carbon,
capacity, wear, and media quality.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.carbon.embodied import DeviceCarbon, device_embodied_kg
from repro.classify.auto_delete import AutoDeletePredictor, train_auto_delete
from repro.classify.classifier import FileClassifier, train_classifier
from repro.classify.corpus import CorpusConfig, generate_corpus
from repro.faults.plan import FaultPlan, FaultSummary
from repro.flash.chip import DAYS_PER_YEAR
from repro.host.block_layer import BlockLayer
from repro.host.files import FileAttributes, FileKind, FileRecord
from repro.host.filesystem import FileSystem
from repro.host.hints import Placement

from .config import SOSConfig, cell_mix, default_config
from .daemon import ClassifierDaemon, DaemonRunReport
from .degradation import DegradationMonitor
from .partitions import PartitionedDevice, build_partitions
from .placement import PlacementEngine
from .repair import CloudBackup
from .scrubber import Scrubber
from .trim_policy import TrimPolicy

__all__ = ["SOSDevice", "DeviceSnapshot"]


class _BackupAwareBlockLayer(BlockLayer):
    """Block layer that mirrors cloud-backed files' writes to the backup."""

    def __init__(self, ftl, backup: CloudBackup) -> None:
        super().__init__(ftl)
        self._backup = backup

    def write_page(
        self,
        lpn: int,
        payload: bytes,
        file: FileRecord | None = None,
        placement: Placement | None = None,
    ) -> None:
        super().write_page(lpn, payload, file, placement)
        if file is not None and file.attributes.cloud_backed:
            self._backup.store_page(lpn, payload)

    def trim_page(self, lpn: int) -> None:
        super().trim_page(lpn)
        self._backup.forget_page(lpn)


@dataclass(frozen=True, slots=True)
class DeviceSnapshot:
    """Point-in-time summary of device state."""

    now_years: float
    capacity_pages: int
    used_pages: int
    sys_mean_pec: float
    spare_mean_pec: float
    blocks_retired: int
    blocks_resuscitated: int
    spare_file_count: int


class SOSDevice:
    """One Sustainability-Oriented Storage device plus its host stack.

    Parameters
    ----------
    config:
        Device configuration; defaults to the paper's default split.
    classifier, auto_delete:
        Pre-trained models; when omitted, models are trained on a fresh
        synthetic corpus (deterministic under ``config.seed``).
    cloud_available:
        Whether the cloud backup serves repairs (A4 ablation).
    fault_plan:
        Optional precomputed fault schedule: infant-mortality block
        deaths (targets keyed by stream name) are applied as the clock
        passes their scheduled day, and the plan's cloud-outage windows
        gate the backup.  ``None`` is the exact pre-fault behaviour.
    """

    def __init__(
        self,
        config: SOSConfig | None = None,
        classifier: FileClassifier | None = None,
        auto_delete: AutoDeletePredictor | None = None,
        cloud_available: bool = True,
        fault_plan: FaultPlan | None = None,
    ) -> None:
        self.config = config or default_config()
        self.partitions: PartitionedDevice = build_partitions(self.config)
        self.ftl = self.partitions.ftl
        self.chip = self.partitions.chip
        self.fault_plan = fault_plan
        self.fault_summary = FaultSummary() if fault_plan is not None else None
        self._fault_cursor = 0
        self.backup = CloudBackup(
            available=cloud_available,
            outage_windows=(
                fault_plan.outage_windows_years() if fault_plan is not None else ()
            ),
            seed=self.config.seed,
        )
        self.block_layer = _BackupAwareBlockLayer(self.ftl, self.backup)
        self.filesystem = FileSystem(self.block_layer)
        if classifier is None or auto_delete is None:
            corpus = generate_corpus(CorpusConfig(), seed=self.config.seed)
            if classifier is None:
                classifier, _ = train_classifier(
                    corpus, now_years=CorpusConfig().now_years, seed=self.config.seed
                )
            if auto_delete is None:
                auto_delete, _ = train_auto_delete(
                    corpus, now_years=CorpusConfig().now_years, seed=self.config.seed
                )
        self.classifier = classifier
        self.auto_delete = auto_delete
        self.placement = PlacementEngine(self.block_layer)
        self.monitor = DegradationMonitor(self.ftl)
        self.scrubber = Scrubber(self.block_layer, self.monitor, self.backup)
        self.trim = TrimPolicy(
            self.filesystem, self.auto_delete, free_target=self.config.trim_free_target
        )
        self.daemon = ClassifierDaemon(
            self.filesystem, self.classifier, self.placement, self.scrubber, self.trim
        )

    # -- time ----------------------------------------------------------------

    @property
    def now_years(self) -> float:
        """Current simulation time."""
        return self.chip.now_years

    def advance_time(self, now_years: float) -> None:
        """Advance device and host clocks together.

        Fault-plan events scheduled up to the new time are applied here:
        infant-mortality deaths force-retire the scheduled block of the
        target stream (live data migrates off first, §4.3's contract).
        """
        self.chip.advance_time(now_years)
        self.filesystem.advance_time(now_years)
        self.backup.advance_time(now_years)
        if self.fault_plan is None:
            return
        assert self.fault_summary is not None
        events = self.fault_plan.events
        while self._fault_cursor < len(events):
            event = events[self._fault_cursor]
            if event.day / DAYS_PER_YEAR > now_years:
                break
            self._fault_cursor += 1
            if event.kind != "infant_death" or event.target not in self.ftl.stream_names():
                continue
            stream_blocks = self.ftl.stream(event.target).blocks
            if event.unit < len(stream_blocks):
                if self.ftl.force_retire(event.target, stream_blocks[event.unit]):
                    self.fault_summary.infant_deaths += 1

    def run_daemon(self) -> DaemonRunReport:
        """One periodic daemon pass at the current time."""
        return self.daemon.run_once()

    # -- convenience I/O --------------------------------------------------------

    def create_file(
        self,
        path: str,
        kind: FileKind,
        size_bytes: int,
        attributes: FileAttributes | None = None,
        content=None,
    ) -> FileRecord:
        """Create a file (lands on SYS per §4.4's write-then-classify)."""
        return self.filesystem.create(path, kind, size_bytes, attributes, content)

    def delete_file(self, path: str) -> None:
        """Delete a file: its pages are trimmed and leave the backup."""
        self.filesystem.delete(path)

    def as_ufs(self):
        """Expose this device through a UFS-style LUN frontend (§4.3).

        LUN 0 (``system``) maps to SYS with reliable writes; LUN 1
        (``userdata``) maps to SPARE with a volatile write buffer --
        the standard-conformant packaging of the SOS split.
        """
        from repro.host.ufs import LunConfig, UfsDevice

        return UfsDevice(self.ftl, [
            LunConfig(lun_id=0, name="system", stream=Placement.SYS.value,
                      reliable_writes=True, bootable=True),
            LunConfig(lun_id=1, name="userdata", stream=Placement.SPARE.value,
                      reliable_writes=False),
        ])

    # -- reporting -----------------------------------------------------------------

    def embodied_carbon(self) -> DeviceCarbon:
        """Embodied carbon of this device's configuration."""
        capacity_gb = self.chip.usable_capacity_bytes() / 1e9
        return device_embodied_kg(
            max(capacity_gb, 1e-12), cell_mix(self.config.spare_fraction)
        )

    def snapshot(self) -> DeviceSnapshot:
        """Summarize current wear/capacity/placement state."""
        spare_files = self.placement.spare_files(list(self.filesystem.live_files()))
        return DeviceSnapshot(
            now_years=self.now_years,
            capacity_pages=self.filesystem.capacity_pages(),
            used_pages=self.filesystem.used_pages(),
            sys_mean_pec=self._mean_live_pec(Placement.SYS.value),
            spare_mean_pec=self._mean_live_pec(Placement.SPARE.value),
            blocks_retired=self.ftl.stats.blocks_retired,
            blocks_resuscitated=self.ftl.stats.blocks_resuscitated,
            spare_file_count=len(spare_files),
        )

    def _mean_live_pec(self, stream_name: str) -> float:
        """Mean PEC over a stream's non-retired blocks (0.0 if none)."""
        blocks = self.ftl.stream(stream_name).block_arr
        pec = self.chip.arrays.pec[blocks[~self.chip.arrays.retired[blocks]]]
        return int(pec.sum()) / pec.size if pec.size else 0.0
