package main

import (
	"fmt"
	"io"

	"fdlsp"
)

// churnFlags carries the -churn* flag values from cliMain.
type churnFlags struct {
	epochs     int
	n          int
	side       float64
	radius     float64
	seed       int64
	loss       float64
	init       string
	moveRate   float64
	crashRate  float64
	leaveRate  float64
	probeEvery int64
	report     int
	metrics    bool
}

// runChurn drives a bounded churn soak and writes a live summary table:
// one row per reporting interval, one line per protocol-level reschedule,
// and the aggregate at the end. Output is a pure function of the flags.
func runChurn(out io.Writer, cf churnFlags) error {
	cfg := fdlsp.ChurnConfig{
		Seed: cf.seed, N: cf.n, Side: cf.side, Radius: cf.radius,
		MoveRate: cf.moveRate, CrashRate: cf.crashRate, LeaveRate: cf.leaveRate,
		Init: fdlsp.ChurnInit(cf.init), Loss: cf.loss, ProbeEvery: cf.probeEvery,
	}
	var reg *fdlsp.MetricsRegistry
	if cf.metrics {
		reg = fdlsp.NewMetricsRegistry()
		cfg.Metrics = reg
	}
	s, err := fdlsp.NewChurnSoak(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "churn soak: n=%d epochs=%d seed=%d loss=%.2f init=%s move=%.2f crash=%.2f leave=%.2f\n",
		cf.n, cf.epochs, cf.seed, cf.loss, cf.init, cf.moveRate, cf.crashRate, cf.leaveRate)
	fmt.Fprintf(out, "%6s %5s %6s %6s %6s %5s %11s %6s\n",
		"epoch", "live", "links", "churn", "dirty", "conv", "min-usable", "slots")

	every := cf.report
	if every <= 0 {
		every = cf.epochs / 20
	}
	if every < 1 {
		every = 1
	}
	sum := fdlsp.ChurnSummary{MinUsable: 1}
	for i := 0; i < cf.epochs; i++ {
		rep, err := s.Step()
		if err != nil {
			return err
		}
		sum.Add(rep)
		if (i+1)%every == 0 || i == cf.epochs-1 || rep.EngineProbe != nil {
			fmt.Fprintf(out, "%6d %5d %6d %6d %6d %5d %11.3f %6d\n",
				rep.Epoch, rep.Live, s.Graph().M(), rep.Perturbations(),
				rep.DirtyArcs, rep.ConvergenceRounds, rep.MinUsable, rep.Slots)
		}
		if pr := rep.EngineProbe; pr != nil {
			fmt.Fprintf(out, "       reschedule@%d: %d rounds, %d msgs, %d returned, converged@%d, %d slots\n",
				pr.Epoch, pr.Rounds, pr.Messages, pr.Returned, pr.ConvergedAt, pr.Slots)
		}
	}
	fmt.Fprintf(out, "summary: %d epochs, %d perturbations, convergence mean %.2f max %d rounds, min usable %.3f, %d reschedules\n",
		sum.Epochs, sum.TotalPerturbations, sum.MeanConvergence(), sum.MaxConvergence,
		sum.MinUsable, sum.EngineProbes)
	fmt.Fprintf(out, "final: live=%d slots=%d, schedule valid every epoch\n", sum.FinalLive, sum.FinalSlots)
	if reg != nil {
		fmt.Fprint(out, "metrics snapshot:\n", reg.Text())
	}
	return nil
}
