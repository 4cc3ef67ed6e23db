//! The per-table/figure experiments. This table is the experiment index:
//!
//! | id | paper reference | function |
//! |----|-----------------|----------|
//! | E1 | Table 1 / Fig. 1 | [`table1()`](table1::table1) |
//! | E2 | Fig. 2 / §3.1.1 | [`mpu_experiment`] |
//! | E3 | Fig. 4 / §3.2.1 | [`interrupt_experiment`] |
//! | E4 | Fig. 5 / §3.2.3 | [`bitband_experiment`] |
//! | E5 | §2.2 | [`flash_experiment`] |
//! | E6 | §3.1.2 | [`ldm_experiment`] |
//! | E7 | §3.1.3 | [`soft_error_experiment`] |
//! | E8 | §1/§4 | [`network_experiment`] |
//! | E9 | §3.2.2 | [`flash_patch_experiment`] |
//! | E10 | §1/§4 (executed) | [`gateway_experiment`] |
//! | E11 | §1/§4 (faults) | [`error_burst_experiment`] / [`babbling_idiot_experiment`] / [`recovery_experiment`] |
//! | E12 | §1/§4 (campaigns) | [`farm_experiment`] |
//! | E13 | §1/§4 (executed RTOS) | [`rtos_exec_experiment`] |

pub mod ablations;
pub mod bitband;
pub mod farm;
pub mod faulty_network;
pub mod flash;
pub mod flash_patch;
pub mod gateway;
pub mod interrupt;
pub mod ldm;
pub mod mpu;
pub mod network;
pub mod rtos_exec;
pub mod soft_error;
pub mod table1;

pub use ablations::{predication_ablation, PredicationAblation};
pub use bitband::{bitband_experiment, BitbandExperiment};
pub use farm::{farm_experiment, FarmExperiment, FlipCounts};
pub use faulty_network::{
    babbling_idiot_experiment, babbling_idiot_experiment_with, error_burst_experiment,
    error_burst_experiment_traced, error_burst_experiment_with, recovery_experiment,
    recovery_experiment_with, BabbleReport, ErrorBurstReport, LatencyVsBound, RecoveryReport,
};
pub use flash::{flash_experiment, FlashExperiment, FlashPoint};
pub use flash_patch::{flash_patch_experiment, FlashPatchExperiment};
pub use gateway::{
    gateway_checksum, gateway_experiment, gateway_experiment_traced, gateway_experiment_with,
    GatewayExperiment, WireReport,
};
pub use interrupt::{interrupt_experiment, InterruptExperiment, SchemeLatency};
pub use ldm::{ldm_experiment, LdmExperiment};
pub use mpu::{mpu_experiment, GranularityPoint, MpuExperiment};
pub use network::{
    guest_can_exchange, guest_can_exchange_checksum, multi_ecu_exchange, multi_ecu_exchange_with,
    multi_ecu_watchdog, network_experiment, GuestCanExchange, MultiEcuExchange, MultiEcuWatchdog,
    NetworkExperiment,
};
pub use rtos_exec::{
    mission_tasks, rtos_exec_checksum, rtos_exec_experiment, rtos_exec_experiment_traced,
    rtos_exec_experiment_with, rtos_jitter_point, rtos_jitter_study, JitterPoint,
    RtosExecExperiment, RtosJitterStudy, TaskJitterRow,
};
pub use soft_error::{soft_error_experiment, CampaignArm, InjectTarget, SoftErrorExperiment};
pub use table1::{
    bus_width_ablation, table1, BusWidthAblation, KernelMeasurement, Table1, Table1Row,
};
