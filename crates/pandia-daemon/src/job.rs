//! Job records and their status machine.
//!
//! Every submitted job moves through the explicit lifecycle
//! `queued → running → completed/failed` (with `running → queued` on a
//! retried failure), and a queued job may end `rejected` by load
//! shedding. The daemon keeps one [`JobRecord`] per submission
//! for its whole life — records are never dropped, so the audit trail
//! can always account for every job the service ever saw. A daemon
//! restored from a checkpoint holds a terminal job's name and status
//! only: nothing reads the rest of a terminal record.

/// Where a job is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobStatus {
    /// Waiting for fleet capacity.
    Queued,
    /// Placed on a machine and running.
    Running,
    /// Finished successfully.
    Completed,
    /// Exhausted its attempt budget.
    Failed,
    /// Refused at the door (the submission queue was full), or dropped
    /// from the queue by load shedding. Shedding takes only queue
    /// members, but a retry is one: a running job that fails is
    /// re-queued, and the same event may shed it, after its `fail`
    /// transcript line. Terminal, like `Failed`, but distinguishable so
    /// callers can resubmit rather than debug.
    Rejected,
}

impl JobStatus {
    /// Lower-case tag used in transcripts and status output.
    pub fn tag(&self) -> &'static str {
        match self {
            JobStatus::Queued => "queued",
            JobStatus::Running => "running",
            JobStatus::Completed => "completed",
            JobStatus::Failed => "failed",
            JobStatus::Rejected => "rejected",
        }
    }

    /// Inverse of [`tag`](Self::tag), for checkpoint parsing.
    pub fn from_tag(tag: &str) -> Option<Self> {
        match tag {
            "queued" => Some(JobStatus::Queued),
            "running" => Some(JobStatus::Running),
            "completed" => Some(JobStatus::Completed),
            "failed" => Some(JobStatus::Failed),
            "rejected" => Some(JobStatus::Rejected),
            _ => None,
        }
    }
}

/// One job as the daemon tracks it.
#[derive(Debug, Clone)]
pub struct JobRecord {
    /// Unique job name from the submit event.
    pub name: String,
    /// Workload class (catalog key).
    pub class: String,
    /// Current lifecycle state.
    pub status: JobStatus,
    /// Placement attempts so far (both faulted placements and external
    /// failures count).
    pub attempts: u32,
    /// Fleet slot while running; the fleet knows the hosting machine.
    pub slot: Option<usize>,
    /// Predicted completion time at the most recent placement.
    pub predicted_time: Option<f64>,
    /// Shedding priority from the submit event (higher survives longer).
    pub priority: u8,
    /// Logical clock at which the job last entered the queue (submission
    /// or backoff re-queue); deadline shedding measures waiting from here.
    pub enqueued_at: u64,
    /// Earliest logical clock at which a backoff-delayed retry may be
    /// dispatched. Zero means immediately eligible.
    pub not_before: u64,
}

impl JobRecord {
    /// A freshly submitted job.
    pub fn new(name: &str, class: &str) -> Self {
        Self {
            name: name.to_string(),
            class: class.to_string(),
            status: JobStatus::Queued,
            attempts: 0,
            slot: None,
            predicted_time: None,
            priority: 0,
            enqueued_at: 0,
            not_before: 0,
        }
    }

    /// Whether the job still occupies (or may occupy) fleet resources.
    pub fn is_live(&self) -> bool {
        matches!(self.status, JobStatus::Queued | JobStatus::Running)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_jobs_are_queued_and_live() {
        let job = JobRecord::new("j0", "EP");
        assert_eq!(job.status, JobStatus::Queued);
        assert!(job.is_live());
        assert_eq!(job.status.tag(), "queued");
    }
}
