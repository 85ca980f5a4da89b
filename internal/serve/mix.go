package serve

import "heteropim"

// LoadCell is one (config, model) cell of the default load mix.
type LoadCell struct {
	Config string `json:"config"`
	Model  string `json:"model"`
}

// defaultLoadScenario is the embedded scenario behind the default
// 8-cell mix: four models on the hetero platform, the same four on the
// GPU baseline. `pimserve -clustercheck` serves it unless `-scenario`
// names another document.
const defaultLoadScenario = `{
  "scenario": 1,
  "name": "default-mix",
  "cells": [
    {"models": ["VGG-19", "AlexNet", "DCGAN", "ResNet-50"], "configs": ["hetero"]},
    {"models": ["VGG-19", "AlexNet", "DCGAN", "ResNet-50"], "configs": ["gpu"]}
  ]
}`

// DefaultLoadPlan compiles the embedded default mix.
func DefaultLoadPlan() (*heteropim.ScenarioPlan, error) {
	return heteropim.CompileScenario([]byte(defaultLoadScenario))
}

// DefaultLoadCells is the default 8-cell mix, derived from the
// embedded scenario so the document stays its single source of truth.
func DefaultLoadCells() []LoadCell {
	plan, err := DefaultLoadPlan()
	if err != nil {
		// The scenario is an embedded constant; failing to compile it is
		// a build defect, not a runtime condition.
		panic(err)
	}
	cells := make([]LoadCell, len(plan.Cells))
	for i, bc := range plan.Cells {
		cells[i] = LoadCell{Config: heteropim.ConfigName(bc.Config), Model: string(bc.Model)}
	}
	return cells
}
