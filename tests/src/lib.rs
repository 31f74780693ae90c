//! Shared helpers for the cross-crate integration tests.

use crn_core::params::ModelInfo;
use crn_sim::channels::ChannelModel;
use crn_sim::topology::Topology;
use crn_sim::Network;
use crn_workloads::Scenario;

pub mod oracle;

/// Builds a scenario network and its model parameters with one call.
pub fn build(topology: Topology, channels: ChannelModel, seed: u64) -> (Network, ModelInfo) {
    let built = Scenario::new("it", topology, channels, seed)
        .build()
        .expect("integration scenario must build");
    (built.net, built.model)
}
