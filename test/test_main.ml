let () =
  Alcotest.run "xenloop-repro"
    (Test_sim.suites @ Test_wheel.suites @ Test_alloc.suites @ Test_memory.suites
   @ Test_evtchn.suites
   @ Test_xenstore.suites @ Test_netcore.suites @ Test_netstack.suites
   @ Test_xennet.suites @ Test_physnet.suites @ Test_xenloop_fifo.suites
   @ Test_xenloop_notify.suites @ Test_xenloop_integration.suites
   @ Test_xenloop_multiqueue.suites @ Test_xenloop_zerocopy.suites
   @ Test_xenloop_loans.suites @ Test_xenloop_ladder.suites @ Test_qos.suites
   @ Test_hypervisor.suites
   @ Test_workloads.suites @ Test_socket_shortcut.suites @ Test_cluster.suites @ Test_mesh.suites @ Test_related.suites @ Test_credit_scheduler.suites @ Test_chaos.suites
   @ Test_bench.suites)
