(* The benchmark's workloads: what each runs, and on which seeds. Why
   each exists is in README.md. *)

module W = Workload
module Partition = Baton_sim.Partition
module Driver = Baton_runtime.Driver

(* CI's adversarial fault spec without its subtree crash: two
   partitions and a gray period. It has no crash because every crash
   schedule tried makes the oracle flag wrong range answers on some
   seeds (README.md), so it cannot stand in for [repro_faults]. *)
let partition_faults =
  "partition@500+1500:k=2;gray@300+2000:peers=5,drop=0.3;partition@3000+1000:k=3,oneway"

(* CI's adversarial fault spec plus one more subtree burst: the
   roadmap's post-fault convergence repro, where partitions overlap
   crashes. *)
let repro_faults =
  "partition@500+1500:k=2;subtree@1000;gray@300+2000:peers=5,drop=0.3;\
   partition@3000+1000:k=3,oneway;subtree@4000:roots=3"

let schedule spec =
  match Partition.parse spec with Ok s -> s | Error e -> failwith ("bad fault spec: " ^ e)

type workload = {
  name : string;
  reps : int;  (** repetitions per run, each on its own sub-seed *)
  sample_lookups : int;
  scenario : int option;
      (** a pinned scenario seed; [None] draws the scenario from each
          repetition's sub-seed as well *)
  config : W.seeds -> W.config;
}

(* Each repetition's seeds: the sub-seed, under the pinned scenario if
   the workload has one. *)
let seeds w sub_seed =
  match w.scenario with
  | None -> W.same_seeds sub_seed
  | Some scenario -> { W.scenario; client = sub_seed }

(* n=800, the adversarial mix, 1,500 ops under a fault spec. *)
let faulted spec seeds =
  {
    W.n = 800;
    ops = 1500;
    mix = Driver.adversarial;
    observers = true;
    faults = schedule spec;
    seeds;
  }

let workloads =
  [
    {
      name = "scale-read";
      reps = 5;
      sample_lookups = 2000;
      scenario = None;
      config =
        (fun seeds ->
          {
            W.n = 50_000;
            ops = 40_000;
            mix = Driver.read_heavy;
            observers = false;
            faults = [];
            seeds;
          });
    };
    {
      name = "churn-observed";
      reps = 3;
      sample_lookups = 0;
      scenario = None;
      config =
        (fun seeds ->
          {
            W.n = 2000;
            ops = 4000;
            mix = Driver.churn_heavy;
            observers = true;
            faults = [];
            seeds;
          });
    };
    {
      name = "fault-partition";
      reps = 32;
      sample_lookups = 0;
      scenario = None;
      config = faulted partition_faults;
    };
    (* Whether the stuck-links loop is reached depends on the scenario:
       scenarios 2 and 5 reach it, so the scenario stays pinned and the
       run seed varies the client traffic over it. *)
    {
      name = "fault-recovery";
      reps = 24;
      sample_lookups = 0;
      scenario = Some 2;
      config = faulted repro_faults;
    };
  ]
