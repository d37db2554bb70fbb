package analysis

import "testing"

func TestPolicyContractFixtures(t *testing.T) {
	checkWants(t, loadFixture(t, "policycontract"), NewPolicyContract())
}
