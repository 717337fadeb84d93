package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"slices"

	"dssddi"
	"dssddi/internal/router"
)

// oracle holds the reference answers, computed in-process from the
// snapshot the fleet serves.
type oracle struct {
	epoch     string
	byPatient [][]dssddi.Suggestion // System.Suggest per cohort patient, f64
	byRegimen [][]dssddi.Suggestion // SuggestFor per regimen at the serving precision
}

func buildOracle(f *fleet, in *inputs) (*oracle, error) {
	ref, err := dssddi.Load(bytes.NewReader(f.snapshot))
	if err != nil {
		return nil, fmt.Errorf("oracle: load snapshot: %w", err)
	}
	or := &oracle{epoch: f.epoch}
	if f.wl.mixed {
		if err := ref.SetPrecision(f.wl.precision); err != nil {
			return nil, fmt.Errorf("oracle: %w", err)
		}
		for _, reg := range in.regimens {
			s, err := ref.SuggestFor(dssddi.PatientProfile{Regimen: reg}, suggestK)
			if err != nil {
				return nil, fmt.Errorf("oracle: regimen %v: %w", reg, err)
			}
			or.byRegimen = append(or.byRegimen, s)
		}
		return or, nil
	}
	for p := range f.data.NumPatients() {
		s, err := ref.Suggest(p, suggestK)
		if err != nil {
			return nil, fmt.Errorf("oracle: patient %d: %w", p, err)
		}
		or.byPatient = append(or.byPatient, s)
	}
	return or, nil
}

// checkSuggestBody compares a /v1/suggest response body with the
// reference suggestions: same drugs in the same order, with bitwise
// equal scores.
func checkSuggestBody(body []byte, want []dssddi.Suggestion) error {
	var got struct {
		Suggestions []struct {
			DrugID int     `json:"drug_id"`
			Score  float64 `json:"score"`
		} `json:"suggestions"`
	}
	if err := json.Unmarshal(body, &got); err != nil {
		return fmt.Errorf("decode suggest response: %w", err)
	}
	if len(got.Suggestions) != len(want) {
		return fmt.Errorf("%d suggestions, want %d", len(got.Suggestions), len(want))
	}
	for i, s := range got.Suggestions {
		if s.DrugID != want[i].DrugID || s.Score != want[i].Score {
			return fmt.Errorf("suggestion %d is drug %d score %v, want drug %d score %v", i, s.DrugID, s.Score, want[i].DrugID, want[i].Score)
		}
	}
	return nil
}

// verifyRun runs the end-of-run checks: every acknowledged
// registration reads back with its last acknowledged regimen, and the
// router reports equal replica digests. It returns the number of lost
// registrations.
func verifyRun(f *fleet, cs []*client, in *inputs) (lost int, err error) {
	for _, c := range cs {
		for id, reg := range c.acked {
			if reg < 0 {
				continue
			}
			var got struct {
				Regimen []int `json:"regimen"`
			}
			if err := getJSON(f.frontURL()+"/v1/patients/"+id, &got); err != nil || !slices.Equal(got.Regimen, in.regimens[reg]) {
				lost++
			}
		}
	}
	if f.rt == nil {
		return lost, nil
	}
	resp, err := http.Get(f.frontURL() + "/v1/admin/registry/verify")
	if err != nil {
		return lost, fmt.Errorf("registry verify: %w", err)
	}
	defer resp.Body.Close()
	var v router.VerifyResponse
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		return lost, fmt.Errorf("registry verify: %w", err)
	}
	if !v.OK {
		return lost, fmt.Errorf("registry verify: replica digests differ: %+v", v.Backends)
	}
	return lost, nil
}
